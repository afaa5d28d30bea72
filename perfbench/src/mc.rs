//! The Monte-Carlo path behind Fig. 2: the `fig2_mc` workload's calls and
//! their oracle (pinned anchors plus a hash of the delay vectors), and the
//! replay of one call through `cell`, `circuit` and `stats::parallel`.

use crate::util::{secs, Report};
use bpimc_bench::experiments::fig2::{self, Fig2Result};
use bpimc_cell::blbench::{BlComputeBench, WlScheme};
use bpimc_cell::disturb::DisturbStudy;
use bpimc_circuit::mc::{sample_rng, BATCH_COHORT};
use bpimc_circuit::{BatchSim, Circuit, SimOptions};
use bpimc_device::{Env, MismatchModel};
use std::time::Instant;

/// Monte-Carlo samples per scheme in one `fig2_mc` request.
pub const SAMPLES: usize = 2000;
/// Samples per scheme of the untimed warm-up call.
pub const WARM_SAMPLES: usize = 64;

/// Delay-vector hashes of `fig2::run(SAMPLES, seed)` for the seeds the
/// committed numbers used and the held-out seed. Any other seed is
/// checked for run-to-run bit identity only.
const PINNED: &[(u64, u64)] = &[
    (1, 0x0d70_2c5b_184f_c45c),
    (2, 0x1de9_e392_50b1_2e9a),
    (3, 0x8f0a_0917_61dc_99ae),
    (4, 0x90cf_3cad_db3e_aaa0),
    (5, 0xbc88_3893_8463_abab),
    (6, 0x4068_fc26_158c_7345),
    (7, 0x7589_4f1e_d5e9_cbaa),
    (8, 0x6007_a421_f867_6868),
    (9, 0xee73_3006_8093_0121),
    (10, 0x75a8_1d48_fa44_74bc),
    (777, 0x89c8_850a_32c3_0214),
    (2020, 0x1a62_227c_aa4a_e921),
];

/// FNV-1a over the bit patterns of both delay vectors.
pub fn delay_hash(wlud: &[f64], prop: &[f64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in wlud.iter().chain(prop) {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// Checks one full-size result against the paper's anchors (WLUD mean
/// about 1.23 ns, proposed about 0.29 ns, the longer tail on WLUD) and its
/// hash against the pinned value or the run's first call.
pub fn check(r: &Fig2Result, seed: u64, first_hash: Option<u64>, report: &mut Report) -> u64 {
    let w = r.wlud_summary().mean;
    let p = r.prop_summary().mean;
    let tail = r.wlud_tail_is_longer();
    report.check(
        (1.15e-9..1.31e-9).contains(&w) && (0.26e-9..0.32e-9).contains(&p) && tail,
        || {
            format!(
                "fig2 anchors off: WLUD mean {w:e} s, proposed {p:e} s, WLUD tail longer {tail}"
            )
        },
    );
    let hash = delay_hash(&r.wlud_delays, &r.prop_delays);
    let want = PINNED
        .iter()
        .find(|(s, _)| *s == seed)
        .map(|(_, h)| *h)
        .or(first_hash);
    report.check(want.is_none_or(|h| h == hash), || {
        format!("fig2 delay hash {hash:#018x}, expected {want:#018x?}")
    });
    hash
}

/// The two studies `fig2::run` builds.
fn studies() -> (DisturbStudy, DisturbStudy) {
    let env = Env::nominal();
    let mm = MismatchModel::nominal();
    let study = |scheme| DisturbStudy::new(BlComputeBench::new(128, env, scheme), mm);
    (
        study(WlScheme::Wlud { v_wl: 0.55 }),
        study(WlScheme::short_boost_140ps()),
    )
}

/// Spans of one `fig2::run` replayed call by call, plus its WLUD delay
/// sweep re-run one cohort at a time on this thread.
pub struct McLayers {
    /// `DisturbStudy::delays` spans (WLUD, proposed), ms.
    pub delays_ms: [f64; 2],
    /// `DisturbStudy::failure_fit` spans (WLUD, proposed), ms.
    pub fit_ms: [f64; 2],
    /// `BatchSim::new` + `run` per 16-sample cohort, ms.
    pub cohort_ms: Vec<f64>,
    /// Whole serial cohorts (build, solve, measure), summed, ms.
    pub serial_ms: f64,
    /// Mean `Trace::len` per sample.
    pub steps_per_sample: f64,
    /// Mean over cohorts of sum(len) / (cohort size * max len).
    pub lane_util: f64,
    /// Hash of the replayed delay vectors.
    pub hash: u64,
}

fn ms(t: Instant) -> f64 {
    secs(t) * 1e3
}

/// Replays `fig2::run(SAMPLES, seed)`'s four sub-calls, then re-solves
/// the WLUD sweep serially cohort by cohort; the serial delays must equal
/// the parallel ones bit for bit.
pub fn replay(seed: u64, report: &mut Report) -> McLayers {
    let (wlud, prop) = studies();
    let n_fit = (SAMPLES / 2).clamp(16, 600);
    let t = Instant::now();
    let wd = wlud.delays(SAMPLES, seed);
    let d0 = ms(t);
    let t = Instant::now();
    let pd = prop.delays(SAMPLES, seed ^ 0x5555);
    let d1 = ms(t);
    let t = Instant::now();
    let _ = wlud.failure_fit(n_fit, seed ^ 0xABCD);
    let f0 = ms(t);
    let t = Instant::now();
    let _ = prop.failure_fit(n_fit, seed ^ 0xDCBA);
    let f1 = ms(t);

    let bench = wlud.bench();
    let window = bench.window();
    let opts = SimOptions::for_window(window);
    let nodes = wlud.bench_nodes();
    let (mut cohort_ms, mut serial_ms) = (Vec::new(), 0.0);
    let (mut steps, mut util) = (0usize, 0.0);
    let mut serial = Vec::with_capacity(SAMPLES);
    for start in (0..SAMPLES).step_by(BATCH_COHORT) {
        let end = (start + BATCH_COHORT).min(SAMPLES);
        let whole = Instant::now();
        let circuits: Vec<Circuit> = (start..end)
            .map(|i| wlud.sampled_circuit(&mut sample_rng(seed, i as u64)))
            .collect();
        let t = Instant::now();
        let traces = BatchSim::new(&circuits, &opts)
            .expect("cohort circuits share one topology")
            .run();
        cohort_ms.push(ms(t));
        serial.extend(traces.iter().map(|tr| {
            bench
                .measure(tr, &nodes, false, true)
                .delay_s
                .unwrap_or(window)
        }));
        serial_ms += ms(whole);
        let lens: Vec<usize> = traces.iter().map(|tr| tr.len()).collect();
        let max = lens.iter().copied().max().unwrap_or(1).max(1);
        steps += lens.iter().sum::<usize>();
        util += lens.iter().sum::<usize>() as f64 / (lens.len() * max) as f64;
    }
    let same = serial.len() == wd.len()
        && serial
            .iter()
            .zip(&wd)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    report.check(same, || {
        "serial cohort replay differs from the parallel delay sweep".into()
    });
    McLayers {
        delays_ms: [d0, d1],
        fit_ms: [f0, f1],
        serial_ms,
        steps_per_sample: steps as f64 / SAMPLES as f64,
        lane_util: util / cohort_ms.len() as f64,
        cohort_ms,
        hash: delay_hash(&wd, &pd),
    }
}

/// The `fig2_mc` calls of one phase.
pub struct Calls {
    /// Wall time of each `fig2::run(SAMPLES, seed)`, seconds.
    pub walls: Vec<f64>,
    pub hash: Option<u64>,
}

/// Calls `fig2::run(SAMPLES, seed)` back to back until `seconds` pass,
/// checking every result.
pub fn calls(seed: u64, seconds: f64, first_hash: Option<u64>, report: &mut Report) -> Calls {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut out = Calls {
        walls: Vec::new(),
        hash: first_hash,
    };
    while out.walls.is_empty() || Instant::now() < deadline {
        let t = Instant::now();
        let r = fig2::run(SAMPLES, seed);
        out.walls.push(secs(t));
        let h = check(&r, seed, out.hash, report);
        out.hash.get_or_insert(h);
    }
    out
}

/// `reps` untimed-workload set-ups: one warm-up `fig2::run(WARM_SAMPLES)`
/// each, which brings up the worker pool and faults in the solver's code
/// and data. Returns each set-up time.
pub fn set_up(seed: u64, reps: usize) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(fig2::run(WARM_SAMPLES, seed));
            secs(t)
        })
        .collect()
}

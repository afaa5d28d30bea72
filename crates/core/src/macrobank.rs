//! The batched multi-macro executor.
//!
//! A [`MacroBank`] is a throughput-oriented executor for batches of
//! independent jobs (the NN classifier's evaluation): it owns `N`
//! independent [`ImcMacro`]s and spreads a queue of jobs across them, one
//! worker thread per macro, with results returned in job order. The
//! paper's 128 KB chip is a bank of 64 macros.
//!
//! Each job gets exclusive `&mut` access to one macro for its whole
//! duration, so macro state (rows, activity log, separator counters) stays
//! consistent and no locking is involved. Cycle and energy accounting is
//! unchanged from running the same jobs sequentially on one macro: the
//! activity logs record *hardware* cycles, and [`MacroBank::total_cycles`]
//! sums them across macros (total work).
//!
//! # Examples
//!
//! ```
//! use bpimc_core::{MacroBank, MacroConfig, Precision};
//!
//! let mut bank = MacroBank::new(4, MacroConfig::paper_macro());
//! // 64 independent add jobs, dispatched across the 4 macros.
//! let sums = bank.try_run_batch(&(0u64..64).collect::<Vec<_>>(), |mac, &j| {
//!     mac.write_words(0, Precision::P8, &[j]).unwrap();
//!     mac.write_words(1, Precision::P8, &[100]).unwrap();
//!     mac.add(0, 1, 2, Precision::P8).unwrap();
//!     mac.read_words(2, Precision::P8, 1).unwrap()[0]
//! });
//! assert_eq!(sums[7], Ok(107));
//! assert_eq!(bank.total_cycles(), 64 * 4); // 2 writes + 1 add + 1 read each
//! ```

use crate::config::MacroConfig;
use crate::macroblock::ImcMacro;
use bpimc_stats::parallel::{par_queue_try_map, worker_count, JobPanic};

/// Cache-line-aligned macro slot: neighbouring macros are mutated by
/// different threads during a batch, and sharing a line between them would
/// ping-pong on every activity-log push.
#[derive(Debug, Clone, PartialEq)]
#[repr(align(128))]
struct MacroSlot(ImcMacro);

/// A pool of independent IMC macros executing batched workloads in
/// parallel.
#[derive(Debug, Clone, PartialEq)]
pub struct MacroBank {
    macros: Vec<MacroSlot>,
}

impl MacroBank {
    /// A bank of `n` zeroed macros.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, config: MacroConfig) -> Self {
        assert!(n > 0, "a bank needs at least one macro");
        Self {
            macros: (0..n).map(|_| MacroSlot(ImcMacro::new(config))).collect(),
        }
    }

    /// A bank sized to the host: one macro per available worker thread.
    pub fn with_host_parallelism(config: MacroConfig) -> Self {
        Self::new(worker_count(usize::MAX), config)
    }

    /// Iterates the macros immutably (activity inspection).
    pub fn macros(&self) -> impl Iterator<Item = &ImcMacro> {
        self.macros.iter().map(|s| &s.0)
    }

    /// One macro, mutably (single-stream use and setup).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn macro_at(&mut self, i: usize) -> &mut ImcMacro {
        &mut self.macros[i].0
    }

    /// Spreads `jobs` across the bank — the calling thread and one pool
    /// worker per additional macro pull jobs from a shared claim queue —
    /// and returns `f`'s results **in job order**, with per-job panic
    /// containment: a job that panics yields `Err(JobPanic)` in its own
    /// result slot while sibling jobs complete normally and the bank stays
    /// usable for later batches.
    ///
    /// `f` gets exclusive access to one macro per job, so it can freely
    /// write rows, run multi-cycle ops and read results. Which macro serves
    /// which job is scheduling-dependent, so jobs must be self-contained
    /// (write their operand rows before using them — as anything batched
    /// across macros must anyway). The claim-queue design bounds a batch's
    /// cost at sequential time plus the dispatch overhead even when pool
    /// worker wake-ups are slow (`bpimc_stats::parallel`'s module docs list
    /// what a wake-up costs); batches whose jobs outlast a wake-up spread
    /// across all macros.
    ///
    /// One faulty job fails alone, without taking down the jobs sharing
    /// the bank. A panicking job may leave its macro's array rows
    /// partially written, which the next job tolerates by construction
    /// (batched jobs always write their operand rows before using them);
    /// its activity log may likewise carry a partial op, so
    /// accounting-sensitive callers should clear per job.
    pub fn try_run_batch<J, T, F>(&mut self, jobs: &[J], f: F) -> Vec<Result<T, JobPanic>>
    where
        J: Sync,
        T: Send,
        F: Fn(&mut ImcMacro, &J) -> T + Sync,
    {
        par_queue_try_map(&mut self.macros, jobs, |slot, job| f(&mut slot.0, job))
    }

    /// Total hardware cycles across all macros — the amount of work done,
    /// identical to running the same jobs on one macro.
    pub fn total_cycles(&self) -> u64 {
        self.macros
            .iter()
            .map(|m| m.0.activity().total_cycles())
            .sum()
    }

    /// Clears every macro's activity log (array contents untouched).
    pub fn clear_activity(&mut self) {
        for m in &mut self.macros {
            m.0.clear_activity();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Precision;

    /// Unwraps a batch every job of which must succeed.
    fn all_ok<T>(out: Vec<Result<T, JobPanic>>) -> Vec<T> {
        out.into_iter()
            .map(|r| r.unwrap_or_else(|p| panic!("{p}")))
            .collect()
    }

    #[test]
    fn batch_results_are_in_job_order() {
        let mut bank = MacroBank::new(3, MacroConfig::paper_macro());
        let jobs: Vec<u64> = (0..50).collect();
        let out = all_ok(bank.try_run_batch(&jobs, |mac, &j| {
            mac.write_words(0, Precision::P8, &[j % 251]).unwrap();
            mac.read_words(0, Precision::P8, 1).unwrap()[0]
        }));
        assert_eq!(out, jobs.iter().map(|j| j % 251).collect::<Vec<_>>());
    }

    #[test]
    fn cycle_accounting_matches_single_macro_execution() {
        // The same 40 mult jobs on a 4-macro bank and on a single macro
        // must log identical total cycles (the log counts hardware cycles,
        // not host time).
        let jobs: Vec<(u64, u64)> = (0..40).map(|i| (i % 256, (i * 7) % 256)).collect();
        let run = |mac: &mut ImcMacro, job: &(u64, u64)| -> u64 {
            mac.write_mult_operands(0, Precision::P8, &[job.0]).unwrap();
            mac.write_mult_operands(1, Precision::P8, &[job.1]).unwrap();
            mac.mult(0, 1, 2, Precision::P8).unwrap();
            mac.read_products(2, Precision::P8, 1).unwrap()[0]
        };

        let mut bank = MacroBank::new(4, MacroConfig::paper_macro());
        let got = all_ok(bank.try_run_batch(&jobs, run));

        let mut single = ImcMacro::new(MacroConfig::paper_macro());
        let expect: Vec<u64> = jobs.iter().map(|j| run(&mut single, j)).collect();

        assert_eq!(got, expect);
        assert_eq!(bank.total_cycles(), single.activity().total_cycles());
        for (a, b) in jobs.iter().zip(&got) {
            assert_eq!(a.0 * a.1, *b);
        }
    }

    #[test]
    fn more_macros_than_jobs_is_fine() {
        let mut bank = MacroBank::new(8, MacroConfig::paper_macro());
        let out = all_ok(bank.try_run_batch(&[1u64, 2], |mac, &j| {
            mac.write_words(0, Precision::P8, &[j]).unwrap();
            j * 10
        }));
        assert_eq!(out, vec![10, 20]);
    }

    #[test]
    fn empty_batch_returns_empty() {
        let mut bank = MacroBank::new(2, MacroConfig::paper_macro());
        let out = bank.try_run_batch(&[], |_mac, j: &u64| *j);
        assert!(out.is_empty());
        assert_eq!(bank.total_cycles(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one macro")]
    fn zero_macros_rejected() {
        let _ = MacroBank::new(0, MacroConfig::paper_macro());
    }

    #[test]
    fn try_run_batch_contains_a_panicking_job() {
        let mut bank = MacroBank::new(3, MacroConfig::paper_macro());
        let jobs: Vec<u64> = (0..30).collect();
        let out = bank.try_run_batch(&jobs, |mac, &j| {
            if j == 13 {
                panic!("poisoned job");
            }
            mac.write_words(0, Precision::P8, &[j % 251]).unwrap();
            mac.read_words(0, Precision::P8, 1).unwrap()[0]
        });
        for (j, r) in out.iter().enumerate() {
            if j == 13 {
                assert!(r.as_ref().unwrap_err().message.contains("poisoned"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), j as u64 % 251);
            }
        }
        // The bank keeps serving after the contained failure.
        let again = all_ok(bank.try_run_batch(&jobs, |mac, &j| {
            mac.write_words(0, Precision::P8, &[j + 1]).unwrap();
            mac.read_words(0, Precision::P8, 1).unwrap()[0]
        }));
        assert_eq!(again, jobs.iter().map(|j| j + 1).collect::<Vec<_>>());
    }

    #[test]
    fn nested_claim_queue_in_a_bank_job_runs_sequentially() {
        // A job that starts its own parallel map while running on a pool
        // worker must not wait on the busy pool: the claim queue runs the
        // nested batch inline on the job's own thread, so the outer batch
        // finishes without deadlock and every nested result is intact.
        // Jobs on the calling thread hold off until a pool worker has run
        // a job, so the worker path is always exercised when the batch
        // has more than one lane.
        let mut bank = MacroBank::new(4, MacroConfig::paper_macro());
        let jobs: Vec<u64> = (0..64).collect();
        let multi_lane = worker_count(jobs.len()).min(4) > 1;
        let worker_ran = std::sync::atomic::AtomicBool::new(false);
        let out = all_ok(bank.try_run_batch(&jobs, |mac, &j| {
            let here = std::thread::current();
            let on_worker = here.name().is_some_and(|n| n.starts_with("bpimc-worker-"));
            let inner = bpimc_stats::parallel::par_claim_indexed_map(8, |k| {
                (std::thread::current().id(), j * 10 + k as u64)
            });
            if on_worker {
                assert!(
                    inner.iter().all(|(t, _)| *t == here.id()),
                    "job {j}: the nested batch left its pool worker"
                );
                worker_ran.store(true, std::sync::atomic::Ordering::SeqCst);
            } else if multi_lane {
                let t0 = std::time::Instant::now();
                while !worker_ran.load(std::sync::atomic::Ordering::SeqCst)
                    && t0.elapsed() < std::time::Duration::from_secs(10)
                {
                    std::thread::yield_now();
                }
            }
            mac.write_words(0, Precision::P8, &[j % 251]).unwrap();
            let read = mac.read_words(0, Precision::P8, 1).unwrap()[0];
            (inner.iter().map(|(_, v)| v).sum::<u64>(), read)
        }));
        for (j, &(sum, read)) in jobs.iter().zip(&out) {
            assert_eq!(sum, (0..8).map(|k| j * 10 + k).sum::<u64>());
            assert_eq!(read, j % 251);
        }
        if multi_lane {
            assert!(
                worker_ran.into_inner(),
                "no job ran on a pool worker, so the nested path went untested"
            );
        }
        assert_eq!(bank.total_cycles(), 2 * jobs.len() as u64);
    }
}

//! Host-speed yardstick.
//!
//! On a shared host the same op can take 60% longer for seconds at a time
//! while a neighbour competes for the core. Every end-to-end time is
//! therefore normalized by a yardstick timed right before and right after
//! the ops it covers: the frozen seed engine (`heteroprio_bench::
//! seed_reference`, bit-pinned to the original Algorithm 1 and never
//! optimized) scheduling the Cholesky N=32 Fig. 6 kernel set. It does the
//! same kind of work as the ops, so it slows down with them. An op time `t`
//! is reported as `t * YARDSTICK_REF_S / y`: the time the op would take on
//! a host where the yardstick takes `YARDSTICK_REF_S`.

use heteroprio_bench::seed_reference::seed_heteroprio;
use heteroprio_core::{HeteroPrioConfig, Instance, Platform};
use heteroprio_taskgraph::Factorization;
use heteroprio_workloads::{independent_instance, paper_platform, ChameleonTiming};
use std::time::Instant;

/// Yardstick time of the reference host.
pub const YARDSTICK_REF_S: f64 = 1e-3;
/// Yardstick runs per measurement; the median is kept.
const RUNS: usize = 5;

pub struct Yardstick {
    instance: Instance,
    platform: Platform,
    last: f64,
    /// Every measurement, in seconds.
    pub samples: Vec<f64>,
}

impl Yardstick {
    pub fn new() -> Self {
        let instance = independent_instance(Factorization::Cholesky, 32, &ChameleonTiming);
        let mut y =
            Yardstick { instance, platform: paper_platform(), last: 0.0, samples: Vec::new() };
        y.last = y.measure();
        y
    }

    fn measure(&mut self) -> f64 {
        let mut runs = [0.0; RUNS];
        for r in &mut runs {
            let start = Instant::now();
            std::hint::black_box(seed_heteroprio(
                &self.instance,
                &self.platform,
                &HeteroPrioConfig::new(),
            ));
            *r = start.elapsed().as_secs_f64();
        }
        runs.sort_by(f64::total_cmp);
        let y = runs[RUNS / 2];
        self.samples.push(y);
        y
    }

    /// Measure again; the factor that normalizes the ops run since the
    /// previous measurement.
    pub fn factor(&mut self) -> f64 {
        let now = self.measure();
        let factor = YARDSTICK_REF_S / ((self.last + now) / 2.0);
        self.last = now;
        factor
    }
}

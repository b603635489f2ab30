//! The metric catalogue (mirrored in `BENCHMARK.json`, which a test
//! checks) and the order statistics every metric is reduced with.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// `true` if `b` is an improvement over `a`.
    pub fn improves(self, a: f64, b: f64) -> bool {
        match self {
            Better::Higher => b > a,
            Better::Lower => b < a,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees, measured with profiling off.
pub const END_TO_END: [Metric; 6] = [
    e2e("sim_cps", "cycle/s", Higher, 0.05),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("ops_per_s", "1/s", Higher, 0.05),
    e2e("op_ms_p50", "ms", Lower, 0.10),
    e2e("op_ms_p95", "ms", Lower, 0.20),
];

/// Per-layer metrics of the profile run (no bound: they explain an
/// end-to-end change, they do not gate one).
pub const PER_LAYER: [Metric; 46] = [
    layer("sysc.act_per_cycle", "1/cycle", Lower),
    layer("sysc.delta_per_cycle", "1/cycle", Lower),
    layer("sysc.update_per_cycle", "1/cycle", Lower),
    layer("sysc.timed_per_cycle", "1/cycle", Lower),
    layer("sysc.floor_ns_per_act", "ns", Lower),
    layer("sysc.floor_ns_per_update", "ns", Lower),
    layer("sysc.floor_ns_per_delta", "ns", Lower),
    layer("sysc.vcd.bytes_per_cycle", "B/cycle", Lower),
    layer("sysc.vcd.write_mb_per_s", "MB/s", Higher),
    layer("microblaze.insn_per_cycle", "1/cycle", Higher),
    layer("microblaze.floor_ns_per_insn", "ns", Lower),
    layer("platform.access.dmi_hit_share", "share", Higher),
    layer("platform.access.dispatcher_share", "share", Lower),
    layer("platform.access.opb_xfer_per_kcycle", "1/kcycle", Lower),
    layer("platform.access.arb_conflict_per_kcycle", "1/kcycle", Lower),
    layer("platform.access.dmi_invalidations", "count", Lower),
    layer("platform.proc.clock.act_per_cycle", "1/cycle", Lower),
    layer("platform.proc.cpu.act_per_cycle", "1/cycle", Lower),
    layer("platform.proc.opb.act_per_cycle", "1/cycle", Lower),
    layer("platform.proc.slave.act_per_cycle", "1/cycle", Lower),
    layer("platform.proc.uart.act_per_cycle", "1/cycle", Lower),
    layer("platform.proc.timer.act_per_cycle", "1/cycle", Lower),
    layer("platform.proc.intc.act_per_cycle", "1/cycle", Lower),
    layer("platform.proc.sync.act_per_cycle", "1/cycle", Lower),
    layer("platform.proc.region.act_per_cycle", "1/cycle", Lower),
    layer("platform.proc.other.act_per_cycle", "1/cycle", Lower),
    layer("checkpoint.save_ms", "ms", Lower),
    layer("checkpoint.restore_ms", "ms", Lower),
    layer("checkpoint.blob_kb", "kB", Lower),
    layer("workload.build_ms", "ms", Lower),
    layer("platform.build_ms", "ms", Lower),
    layer("phase.1.ns_per_cycle", "ns/cycle", Lower),
    layer("phase.2.ns_per_cycle", "ns/cycle", Lower),
    layer("phase.3.ns_per_cycle", "ns/cycle", Lower),
    layer("phase.4.ns_per_cycle", "ns/cycle", Lower),
    layer("phase.5.ns_per_cycle", "ns/cycle", Lower),
    layer("phase.6.ns_per_cycle", "ns/cycle", Lower),
    layer("phase.7.ns_per_cycle", "ns/cycle", Lower),
    layer("phase.8.ns_per_cycle", "ns/cycle", Lower),
    layer("phase.9.ns_per_cycle", "ns/cycle", Lower),
    layer("phase.10.ns_per_cycle", "ns/cycle", Lower),
    layer("host.ns_per_cycle", "ns/cycle", Lower),
    layer("est.sysc_share", "share", Lower),
    layer("est.microblaze_share", "share", Lower),
    layer("profile.overhead", "ratio", Lower),
    layer("profile.span_coverage", "share", Higher),
];

/// The median (mean of the two middle values for an even count); NaN
/// for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `n - 1` cut points dividing `values` into `n` groups, exactly as
/// Python's `statistics.quantiles(values, n=n)` (its default
/// "exclusive" method) computes them, so the spreads this benchmark
/// reports match the ones an outside check computes.
pub fn quantiles(values: &[f64], n: usize) -> Vec<f64> {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    match ld {
        0 => return vec![f64::NAN; n - 1],
        1 => return vec![d[0]; n - 1],
        _ => {}
    }
    let m = ld + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            let delta = (i * m - j * n) as f64;
            (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64
        })
        .collect()
}

/// The nearest-rank 95th percentile: the smallest value with at least
/// 95 % of the values at or below it. Unlike the interpolating cut
/// points it never reaches past the largest value on a short list.
pub fn p95(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * 95).div_ceil(100);
    v.get(rank.saturating_sub(1)).copied().unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_exclusive_method() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quantiles(&v, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quantiles(&[5.0, 1.0, 3.0], 4), vec![1.0, 3.0, 5.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn p95_is_nearest_rank() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(p95(&v), 38.0);
        assert_eq!(p95(&[3.0, 1.0, 2.0]), 3.0);
        assert_eq!(p95(&[7.0]), 7.0);
        assert!(p95(&[]).is_nan());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(all[i + 1..].iter().all(|o| o.name != m.name), "duplicate {}", m.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }
}

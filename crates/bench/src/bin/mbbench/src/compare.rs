//! `mbbench compare A B`: the verdict on two sets of runs.
//!
//! `A` (the parent, or the first set of an A/A check) and `B` (the
//! change) are each a directory of saved `mbbench` outputs, one run per
//! file; files pair up in name order, so name them by run index and
//! alternate which side runs first. For every (workload, end-to-end
//! metric) pair the tool prints both sides' median and quartiles and one
//! verdict:
//!
//! * `better` — B beats A in at least 9 of 10 pairs and the medians
//!   differ by more than A's interquartile range;
//! * `worse` — B's median is worse than A's by more than the metric's
//!   bound;
//! * `unresolved` — neither, and one side's spread (interquartile range
//!   over median) is wider than the bound;
//! * `same` — within the bound, with both spreads inside it.
//!
//! It exits 1 if any pair is `worse` or any B run failed its goldens.

use crate::json::Json;
use crate::metrics::{median, quantiles, Metric, END_TO_END};
use std::path::Path;

/// One saved run.
#[derive(Debug)]
struct Run {
    workload: String,
    profile: bool,
    correct: bool,
    metrics: Vec<(String, f64)>,
}

/// Parses one saved output: the `mbbench:` header line, and the JSON
/// result on the last line.
fn parse_run(text: &str) -> Result<Run, String> {
    let header = text.lines().find(|l| l.starts_with("mbbench:")).ok_or("no mbbench: header")?;
    let field =
        |key: &str| header.split_whitespace().find_map(|t| t.strip_prefix(key)).map(str::to_string);
    let workload = field("workload=").ok_or("header names no workload")?;
    let profile = field("trace=").as_deref() == Some("1");
    let last = text.lines().rev().find(|l| !l.trim().is_empty()).ok_or("empty output")?;
    let json = Json::parse(last)?;
    let correct = json.get("correct").and_then(Json::as_bool).ok_or("no \"correct\"")?;
    let metrics = json
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("no \"metrics\"")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(Run { workload, profile, correct, metrics })
}

fn load(dir: &Path) -> Result<Vec<Run>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            parse_run(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// The outcome for one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unresolved,
    Same,
}

/// Interquartile range over the median.
fn spread(v: &[f64]) -> f64 {
    let q = quantiles(v, 4);
    (q[2] - q[0]) / median(v).abs()
}

/// The verdict on `b` (change) against `a` (parent), runs paired by
/// index.
pub fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = m.bound.expect("verdicts are for bounded metrics");
    let (ma, mb) = (median(a), median(b));
    let q = quantiles(a, 4);
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| m.better.improves(a[i], b[i])).count();
    let worse_by = if m.better.improves(mb, ma) { (mb - ma).abs() / ma.abs() } else { 0.0 };
    if pairs > 0
        && wins * 10 >= pairs * 9
        && m.better.improves(ma, mb)
        && (mb - ma).abs() > q[2] - q[0]
    {
        Verdict::Better
    } else if worse_by > bound {
        Verdict::Worse
    } else if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

/// Prints the comparison table; returns `true` when nothing is worse
/// and every B run passed its goldens.
pub fn compare(a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_dir)?, load(b_dir)?);
    let mut ok = true;
    for r in b.iter().filter(|r| !r.correct) {
        println!("B run of {} failed its goldens", r.workload);
        ok = false;
    }
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    println!(
        "{:<14} {:<12} {:>36} {:>36} {:>5} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "pairs", "B wins"
    );
    for w in workloads {
        for m in END_TO_END.iter() {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter(|r| r.workload == w && !r.profile)
                    .filter_map(|r| r.metrics.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v))
                    .collect()
            };
            let (va, vb) = (values(&a), values(&b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(m, &va, &vb);
            ok &= v != Verdict::Worse;
            let show = |v: &[f64]| {
                let q = quantiles(v, 4);
                format!("{:.6} [{:.6}, {:.6}]", median(v), q[0], q[2])
            };
            let pairs = va.len().min(vb.len());
            let wins = (0..pairs).filter(|&i| m.better.improves(va[i], vb[i])).count();
            println!(
                "{w:<14} {:<12} {:>36} {:>36} {pairs:>5} {wins:>6}  {}",
                m.name,
                show(&va),
                show(&vb),
                format!("{v:?}").to_lowercase()
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static Metric {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_the_bounds_and_the_pair_rule() {
        let cps = metric("sim_cps"); // higher is better, 5 % bound
        let a: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3) * 0.1).collect();
        let same: Vec<f64> = a.iter().rev().copied().collect();
        assert_eq!(verdict(cps, &a, &same), Verdict::Same);
        let faster: Vec<f64> = a.iter().map(|x| x * 1.03).collect();
        assert_eq!(verdict(cps, &a, &faster), Verdict::Better);
        let slower: Vec<f64> = a.iter().map(|x| x * 0.9).collect();
        assert_eq!(verdict(cps, &a, &slower), Verdict::Worse);
        let noisy: Vec<f64> = (0..10).map(|i| if i % 2 == 0 { 80.0 } else { 120.0 }).collect();
        assert_eq!(verdict(cps, &a, &noisy), Verdict::Unresolved);
        let lat = metric("op_ms_p95"); // lower is better
        let longer: Vec<f64> = a.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(lat, &a, &longer), Verdict::Worse);
        assert_eq!(verdict(lat, &a, &slower), Verdict::Better);
    }

    #[test]
    fn parses_a_saved_run() {
        let text = "mbbench: workload=boot_dmi seed=3 trace=0\n\
                    {\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
                    {\"sim_cps\": {\"value\": 2.5e6, \"unit\": \"cycle/s\"}}}\n";
        let r = parse_run(text).unwrap();
        assert_eq!((r.workload.as_str(), r.profile, r.correct), ("boot_dmi", false, true));
        assert_eq!(r.metrics, vec![("sim_cps".to_string(), 2.5e6)]);
        assert!(parse_run("no header\n{}").is_err());
    }
}

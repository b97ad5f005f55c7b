//! `perf_ledger compare PARENT.json CHANGE.json`: one row per workload
//! and end-to-end metric, with a verdict under the bounds in
//! `BENCHMARK.json` and the small-sandbox rule:
//!
//! * **better** — at least [`MIN_PAIRS`] paired runs, the change wins at
//!   least 9 in 10 of them, and the medians differ by more than the
//!   parent's interquartile range;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the bound;
//! * **unresolved** — the parent's own spread is wider than the bound,
//!   so "no regression" cannot be shown, unless every change run beats
//!   every parent run;
//! * **same** — otherwise.

use std::collections::BTreeMap;

use serde::Value;

use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Paired runs a gain needs before it can be claimed.
pub const MIN_PAIRS: usize = 10;

/// The verdict on `change` against `parent` runs of one metric.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    if parent.is_empty() || change.is_empty() {
        return Verdict::Unresolved;
    }
    let beats = |c: f64, p: f64| match better {
        Better::Lower => c < p,
        Better::Higher => c > p,
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| beats(c, p))
        .count();
    let (m_p, m_c) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && beats(m_c, m_p)
        && (m_c - m_p).abs() > q3 - q1
    {
        return Verdict::Better;
    }
    let scale = m_p.abs().max(f64::MIN_POSITIVE);
    let worse_by = match better {
        Better::Lower => (m_c - m_p) / scale,
        Better::Higher => (m_p - m_c) / scale,
    };
    let every = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
    if worse_by > bound {
        Verdict::Worse
    } else if (q3 - q1) / scale > bound && !every {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

/// `(name, better, bound)` of every end-to-end metric in a
/// `BENCHMARK.json` text.
pub fn bounds(benchmark_json: &str) -> Result<Vec<(String, Better, f64)>, String> {
    let v: Value = serde_json::from_str(benchmark_json).map_err(|e| e.to_string())?;
    let list = get(&v, "end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = get(m, "name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            let better = match get(m, "better").and_then(Value::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let bound = get(m, "bound")
                .and_then(num)
                .ok_or("metric without bound")?;
            Ok((name.to_owned(), better, bound))
        })
        .collect()
}

pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?.get(key)
}

pub fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Number(n) => Some(n.as_f64()),
        _ => None,
    }
}

/// Per workload, per metric, the values of every run in a results file
/// (end-to-end and per-layer metrics alike).
pub fn runs_by_workload(results: &Value) -> BTreeMap<String, BTreeMap<String, Vec<f64>>> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for run in get(results, "runs")
        .and_then(Value::as_array)
        .unwrap_or(&[])
    {
        let Some(w) = get(run, "workload").and_then(Value::as_str) else {
            continue;
        };
        let metrics = out.entry(w.to_owned()).or_default();
        for section in ["e2e", "layers"] {
            for (k, v) in get(run, section)
                .and_then(Value::as_object)
                .into_iter()
                .flat_map(|m| m.iter())
            {
                if let Some(x) = num(v) {
                    metrics.entry(k.clone()).or_default().push(x);
                }
            }
        }
    }
    out
}

/// Renders the comparison table; the second value counts `worse` rows.
pub fn compare(
    parent: &Value,
    change: &Value,
    bounds: &[(String, Better, f64)],
) -> (String, usize) {
    let a = runs_by_workload(parent);
    let b = runs_by_workload(change);
    let mut out = format!(
        "{:<13} {:<15} {:>12} {:>12} {:>8} {:>8}  {}\n",
        "workload", "metric", "parent p50", "change p50", "delta", "bound", "verdict"
    );
    let mut worse = 0;
    let empty = BTreeMap::new();
    for (workload, pa) in &a {
        let pb = b.get(workload).unwrap_or(&empty);
        for (name, better, bound) in bounds {
            let (va, vb) = (
                pa.get(name).map_or(&[][..], Vec::as_slice),
                pb.get(name).map_or(&[][..], Vec::as_slice),
            );
            let v = verdict(va, vb, *better, *bound);
            worse += usize::from(v == Verdict::Worse);
            let (ma, mb) = (median(va), median(vb));
            out.push_str(&format!(
                "{workload:<13} {name:<15} {ma:>12.4} {mb:>12.4} {:>+7.1}% {:>7.0}%  {} (n={}/{})\n",
                if ma == 0.0 { 0.0 } else { 100.0 * (mb - ma) / ma },
                100.0 * bound,
                v.as_str(),
                va.len(),
                vb.len()
            ));
        }
    }
    out.push_str("\nreconciliation (medians over runs; traced runs only)\n");
    out.push_str(&format!(
        "{:<13} {:<7} {:>12} {:>16} {:>16} {:>15}\n",
        "workload", "side", "e2e p50 ms", "sum layer p50s", "residual p50 ms", "residual share"
    ));
    for workload in ["svc_cold", "svc_hot"] {
        for (side, runs) in [("parent", &a), ("change", &b)] {
            let m = |k: &str| {
                runs.get(workload)
                    .and_then(|r| r.get(k))
                    .map_or(f64::NAN, |v| median(v))
            };
            out.push_str(&format!(
                "{workload:<13} {side:<7} {:>12.4} {:>16.4} {:>16.4} {:>15.3}\n",
                m("p50_ms"),
                m("layers.sum_p50_ms"),
                m("residual.p50_ms"),
                m("residual.share")
            ));
        }
    }
    (out, worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_runs_are_the_same() {
        let p = [10.0, 10.2, 9.9, 10.1, 10.0];
        assert_eq!(verdict(&p, &p, Better::Lower, 0.1), Verdict::Same);
    }

    #[test]
    fn a_consistent_win_beyond_the_spread_is_better() {
        let p = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9];
        let c: Vec<f64> = p.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&p, &c, Better::Lower, 0.1), Verdict::Better);
        assert_eq!(verdict(&p, &c, Better::Higher, 0.1), Verdict::Worse);
    }

    #[test]
    fn a_median_regression_past_the_bound_is_worse() {
        let p = [100.0, 101.0, 99.0, 100.0, 100.5];
        let c = [112.0, 113.0, 111.0, 112.5, 112.0];
        assert_eq!(verdict(&p, &c, Better::Lower, 0.1), Verdict::Worse);
        // Within the bound it is the same.
        let c = [105.0, 104.0, 106.0, 105.5, 104.5];
        assert_eq!(verdict(&p, &c, Better::Lower, 0.1), Verdict::Same);
    }

    #[test]
    fn a_parent_spread_wider_than_the_bound_is_unresolved() {
        let p = [50.0, 150.0, 100.0, 70.0, 130.0];
        let c = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(verdict(&p, &c, Better::Lower, 0.1), Verdict::Unresolved);
        // ... unless every change run beats every parent run.
        let c = [10.0, 12.0, 11.0, 9.0, 10.5];
        assert_eq!(verdict(&p, &c, Better::Lower, 0.1), Verdict::Same);
    }

    #[test]
    fn fewer_than_ten_pairs_claim_no_gain() {
        let p = [10.0, 10.1, 9.9, 10.0, 10.2];
        let c = [8.0, 8.1, 7.9, 8.0, 8.2];
        assert_eq!(verdict(&p, &c, Better::Lower, 0.1), Verdict::Same);
    }

    #[test]
    fn wins_below_nine_in_ten_are_not_better() {
        let p = [10.0; 10];
        let mut c = [9.0; 10];
        c[0] = 11.0;
        c[1] = 11.0;
        // 8 of 10 pairs won: not a gain, and within the bound.
        assert_eq!(verdict(&p, &c, Better::Lower, 0.1), Verdict::Same);
    }

    #[test]
    fn bounds_are_read_from_benchmark_json() {
        let text = r#"{"end_to_end":[{"name":"p50_ms","unit":"ms","better":"lower","bound":0.1},
                       {"name":"throughput_rps","unit":"ops/s","better":"higher","bound":0.15}]}"#;
        let b = bounds(text).unwrap();
        assert_eq!(b[0], ("p50_ms".to_owned(), Better::Lower, 0.1));
        assert_eq!(b[1], ("throughput_rps".to_owned(), Better::Higher, 0.15));
    }
}

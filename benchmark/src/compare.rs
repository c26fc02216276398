//! `kvbench compare <a.json> <b.json>`: holds run B against run A with
//! the direction and bound `BENCHMARK.json` fixes for each end-to-end
//! metric, one row per (workload, metric).

use obs::json::Value;

use crate::spec::{self, Gate, Workload};

/// How B's value of a metric stands against A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Worsened by more than the bound.
    Worse,
    /// Moved by less than the bound either way: two single runs cannot
    /// tell such a change from run-to-run spread.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a` under `gate`.
pub fn judge(gate: &Gate, a: f64, b: f64) -> Verdict {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    let worsening = if gate.higher_is_better {
        -change
    } else {
        change
    };
    if worsening > gate.bound {
        Verdict::Worse
    } else if worsening < -gate.bound {
        Verdict::Better
    } else {
        Verdict::Unresolved
    }
}

fn failed_share(run: &Value) -> Option<f64> {
    let failed = run.get("failed").and_then(spec::as_f64)?;
    let attempted = run.get("attempted").and_then(spec::as_f64)?;
    Some(failed / attempted.max(1.0))
}

fn metric(run: &Value, name: &str) -> Option<f64> {
    run.get("metrics")?
        .get(name)?
        .get("value")
        .and_then(spec::as_f64)
}

/// Compares two result documents. Returns the printable rows and whether
/// any pair is worse than its bound or fails a larger share of its ops.
pub fn compare(a: &Value, b: &Value, gates: &[Gate]) -> Result<(Vec<String>, bool), String> {
    let mut rows = vec![format!(
        "{:<8} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "change", "bound"
    )];
    let mut any_worse = false;
    let mut compared = 0;
    for workload in Workload::ALL {
        let run = |doc: &Value| {
            doc.get("workloads")
                .and_then(|w| w.get(workload.name()))
                .cloned()
        };
        let (Some(run_a), Some(run_b)) = (run(a), run(b)) else {
            continue;
        };
        compared += 1;
        for gate in gates {
            let (Some(va), Some(vb)) = (metric(&run_a, &gate.name), metric(&run_b, &gate.name))
            else {
                return Err(format!(
                    "{}: metric {} missing from a document",
                    workload.name(),
                    gate.name
                ));
            };
            let verdict = judge(gate, va, vb);
            any_worse |= verdict == Verdict::Worse;
            rows.push(format!(
                "{:<8} {:<14} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}%  {}",
                workload.name(),
                gate.name,
                va,
                vb,
                100.0 * (vb - va) / va.abs().max(f64::MIN_POSITIVE),
                100.0 * gate.bound,
                verdict.label()
            ));
        }
        let (Some(fa), Some(fb)) = (failed_share(&run_a), failed_share(&run_b)) else {
            return Err(format!(
                "{}: attempted/failed missing from a document",
                workload.name()
            ));
        };
        let verdict = if fb > fa { "worse" } else { "same or better" };
        any_worse |= fb > fa;
        rows.push(format!(
            "{:<8} {:<14} {:>14.6} {:>14.6} {:>9} {:>7}  {}",
            workload.name(),
            "failed_share",
            fa,
            fb,
            "",
            "any",
            verdict
        ));
    }
    if compared == 0 {
        return Err("the documents share no workload".into());
    }
    Ok((rows, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(higher: bool) -> Gate {
        Gate {
            name: "m".into(),
            higher_is_better: higher,
            bound: 0.10,
        }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        assert_eq!(judge(&gate(true), 100.0, 89.0), Verdict::Worse);
        assert_eq!(judge(&gate(true), 100.0, 111.0), Verdict::Better);
        assert_eq!(judge(&gate(true), 100.0, 95.0), Verdict::Unresolved);
        assert_eq!(judge(&gate(false), 100.0, 111.0), Verdict::Worse);
        assert_eq!(judge(&gate(false), 100.0, 89.0), Verdict::Better);
        assert_eq!(judge(&gate(false), 100.0, 109.0), Verdict::Unresolved);
    }

    fn doc(ops_s: f64, failed: u64) -> Value {
        let metrics: Vec<String> = spec::END_TO_END
            .iter()
            .map(|(n, u)| {
                let v = if *n == "ops_s" { ops_s } else { 1.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        obs::json::parse(&format!(
            "{{\"workloads\": {{\"get\": {{\"correct\": true, \"attempted\": 100, \"failed\": {failed}, \"metrics\": {{{}}}}}}}}}",
            metrics.join(", ")
        ))
        .unwrap()
    }

    #[test]
    fn compare_flags_regressions_and_new_failures() {
        let gates = spec::gates(spec::BENCHMARK_JSON).unwrap();
        let (rows, worse) = compare(&doc(1000.0, 0), &doc(990.0, 0), &gates).unwrap();
        assert!(!worse);
        assert_eq!(
            rows.len(),
            1 + gates.len() + 1,
            "header + one row per metric + failed_share"
        );
        assert!(
            compare(&doc(1000.0, 0), &doc(500.0, 0), &gates).unwrap().1,
            "halved throughput"
        );
        assert!(
            compare(&doc(1000.0, 0), &doc(1000.0, 1), &gates).unwrap().1,
            "a new failure"
        );
        assert!(compare(&doc(1.0, 0), &obs::json::parse("{}").unwrap(), &gates).is_err());
    }
}

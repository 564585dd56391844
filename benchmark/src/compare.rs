//! `compare a.json b.json`: per workload and end-to-end metric, both
//! values, the relative change and a verdict against the metric's bound.
//!
//! The bounds are for two runs of the *same seed*: virtual metrics are
//! then deterministic, so any difference is a change in the program.

use crate::report::{Metric, Report};

/// How a metric moved between two reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// On one side the two best repetitions disagree by more than the
    /// bound, so its estimate has not converged and a difference of that
    /// size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Verdict on candidate `b` against baseline `a`, using `a`'s bounds.
pub fn verdict(a: &Metric, b: &Metric) -> Verdict {
    if a.value == b.value {
        return Verdict::Same;
    }
    let tolerance = (a.bound * a.value.abs()).max(a.bound_abs);
    // Gap between best and runner-up estimate, in the metric's unit.
    let noise = (a.spread * a.value.abs()).max(b.spread * b.value.abs());
    if noise > tolerance {
        return Verdict::Unresolved;
    }
    let worse_by = if a.better == "lower" {
        b.value - a.value
    } else {
        a.value - b.value
    };
    if worse_by.abs() <= tolerance {
        Verdict::Same
    } else if worse_by > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

/// The comparison table, and whether every row is `same` or `better`.
pub fn compare(a: &Report, b: &Report) -> (String, bool) {
    let mut out = format!(
        "baseline: {} seed {} on {} x {}\ncandidate: {} seed {} on {} x {}\n",
        a.kind,
        a.seed,
        a.host.nproc,
        a.host.cpu_model,
        b.kind,
        b.seed,
        b.host.nproc,
        b.host.cpu_model
    );
    if a.seed != b.seed {
        out.push_str(
            "warning: different seeds - virtual metrics differ by input, not only by program\n",
        );
    }
    let mut clean = true;
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            out.push_str(&format!("== {}: missing from the candidate\n", wa.name));
            clean = false;
            continue;
        };
        let digests = if wa.virtual_digest == wb.virtual_digest {
            "virtual_digest identical".to_string()
        } else {
            format!(
                "virtual_digest {} -> {}",
                wa.virtual_digest, wb.virtual_digest
            )
        };
        out.push_str(&format!("== {}: {digests}\n", wa.name));
        for ma in &wa.end_to_end {
            let Some(mb) = wb.metric(&ma.name) else {
                out.push_str(&format!("   {:<18} missing from the candidate\n", ma.name));
                clean = false;
                continue;
            };
            let v = verdict(ma, mb);
            clean &= matches!(v, Verdict::Same | Verdict::Better);
            let change = if ma.value == 0.0 {
                format!("{:+.6} abs", mb.value - ma.value)
            } else {
                format!("{:+.3} %", (mb.value - ma.value) / ma.value * 100.0)
            };
            out.push_str(&format!(
                "   {:<18} {:>14.6} -> {:>14.6} {:<5} {:>12}  spread {:.1} % / {:.1} %  {}\n",
                ma.name,
                ma.value,
                mb.value,
                ma.unit,
                change,
                ma.spread * 100.0,
                mb.spread * 100.0,
                v.label()
            ));
        }
    }
    (out, clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, spread: f64, better: &str, bound: f64, bound_abs: f64) -> Metric {
        Metric {
            name: "m".into(),
            unit: "u".into(),
            clock: "host".into(),
            better: better.into(),
            value,
            median: value,
            min: value,
            max: value,
            spread,
            samples: 3,
            samples_of: "repetitions".into(),
            bound,
            bound_abs,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = metric(100.0, 0.01, "lower", 0.10, 0.0);
        assert_eq!(
            verdict(&base, &metric(100.0, 0.5, "lower", 0.10, 0.0)),
            Verdict::Same
        );
        assert_eq!(
            verdict(&base, &metric(105.0, 0.01, "lower", 0.10, 0.0)),
            Verdict::Same
        );
        assert_eq!(
            verdict(&base, &metric(115.0, 0.01, "lower", 0.10, 0.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &metric(85.0, 0.01, "lower", 0.10, 0.0)),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &metric(105.0, 0.2, "lower", 0.10, 0.0)),
            Verdict::Unresolved
        );
        // Higher is better: a drop is worse.
        let thr = metric(4000.0, 0.0, "higher", 0.02, 0.0);
        assert_eq!(
            verdict(&thr, &metric(3900.0, 0.0, "higher", 0.02, 0.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&thr, &metric(4100.0, 0.0, "higher", 0.02, 0.0)),
            Verdict::Better
        );
        // An absolute slack carries a metric that sits at zero, and a
        // small set-up time whose relative spread is wide.
        let share = metric(0.0, 0.0, "lower", 0.0, 0.001);
        assert_eq!(
            verdict(&share, &metric(0.0005, 0.0, "lower", 0.0, 0.001)),
            Verdict::Same
        );
        assert_eq!(
            verdict(&share, &metric(0.002, 0.0, "lower", 0.0, 0.001)),
            Verdict::Worse
        );
        let setup = metric(0.002, 0.6, "lower", 0.25, 0.05);
        assert_eq!(
            verdict(&setup, &metric(0.004, 0.6, "lower", 0.25, 0.05)),
            Verdict::Same
        );
    }
}

//! Metric collection, order statistics, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Named metrics with their units, in name order.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Metrics {
    /// Record `name`; a name may be set once only.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let prev = self.values.insert(name, (value, unit));
        assert!(prev.is_none(), "metric {name} recorded twice");
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.values.keys().copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.values.iter().map(|(n, (v, u))| (*n, *v, *u))
    }
}

/// The run's result, printed as the last line of standard output.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn to_json_line(&self) -> String {
        let mut s = String::new();
        write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        )
        .expect("writing to a String cannot fail");
        for (k, (name, value, unit)) in self.metrics.iter().enumerate() {
            if k > 0 {
                s.push_str(", ");
            }
            // Rust prints a finite f64 as a plain decimal with every digit
            // its round trip needs: a valid JSON number.
            write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        s
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of a non-empty sample (`q` in `[0, 1]`).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut metrics = Metrics::default();
        metrics.set("op_s", 1.5, "s");
        metrics.set("graph.edges", 12.0, "count");
        let line = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics,
        }
        .to_json_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"graph.edges\": {\"value\": 12, \"unit\": \"count\"}, \
             \"op_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}

//! Sample statistics and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of unsorted samples;
/// `None` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(q, sorted.len()) - 1])
}

/// The 1-based nearest rank of the `q`-quantile among `n` samples.  The
/// small allowance keeps `0.9 × 100` from rounding up to rank 91.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The median of unsorted samples (`0.0` for none).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// The `q`-quantile, but only when at least ten samples lie beyond it
/// (`0.0` otherwise): a tail read from fewer is not a tail.
pub fn tail(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() || samples.len() - rank(q, samples.len()) < 10 {
        return 0.0;
    }
    quantile(samples, q).unwrap_or(0.0)
}

/// Mean of samples (`0.0` for none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// An empty set.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records (or replaces) one metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => *entry = (name.to_string(), value, unit),
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// The value of a metric, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The metrics as a JSON object `{"name": {"value": v, "unit": u}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// The final result line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// Quotes a string for JSON output.
pub fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), Some(50.0));
        assert_eq!(quantile(&s, 0.9), Some(90.0));
        assert_eq!(tail(&s, 0.9), 90.0);
        assert_eq!(tail(&s, 0.95), 0.0, "only five samples beyond p95");
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn renders_json() {
        let mut m = Metrics::new();
        m.set("a_ms", 1.5, "ms");
        m.set("b", f64::NAN, "count");
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
    }
}

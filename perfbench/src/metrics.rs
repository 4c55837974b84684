//! The result vocabulary: named metrics with units, the tally of
//! attempted and failed operations, order statistics, and the one-line
//! JSON result every run ends with.

use std::fmt::Write as _;
use std::time::Duration;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `updates_per_s`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `ms` or `count`.
    pub unit: &'static str,
}

/// An ordered set of metrics (insertion order is print order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Sets `name` to `value`, replacing an earlier value.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.0.push(Metric { name, value, unit }),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The metrics in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }
}

/// Operations attempted and failed, with a line per failure.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted: every apply, ask, checkpoint, restore and
    /// end-of-run audit.
    pub attempted: u64,
    /// Operations that returned `Err` or a wrong answer.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub findings: Vec<String>,
}

impl Tally {
    /// Counts one operation; an `Err` is a failure.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, finding: String) {
        self.failed += 1;
        self.findings.push(finding);
    }

    /// Records a failure unless `ok` holds.
    pub fn expect(&mut self, ok: bool, finding: impl FnOnce() -> String) {
        if !ok {
            self.fail(finding());
        }
    }

    /// Whether every attempted operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile `q` (0..=100) of `xs`; 0 for no samples.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `xs` (midpoint of the two middle samples for even
/// counts); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
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

/// A finite number as JSON (Rust's shortest round-trip form, never
/// an exponent); non-finite values become 0 and are caught by the
/// caller's tally.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value": .., "unit": ..}`.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct(),
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 95.0), 5.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn result_line_shape() {
        let mut t = Tally::default();
        t.op::<(), &str>("apply", Ok(()));
        t.op::<(), &str>("ask", Err("boom"));
        let mut m = Metrics::default();
        m.set("latency_ms", 1.25, "ms");
        m.set("latency_ms", 1.5, "ms");
        assert_eq!(
            result_line(&t, &m),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}

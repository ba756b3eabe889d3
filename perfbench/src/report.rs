//! Statistics, the daemons' stats lines, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// What the value rests on: percentile, sample count, ratio base.
    pub note: String,
}

/// A metric with a note.
pub fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// The `q`-quantile (0..=1) of `values`, linearly interpolated; 0 for
/// no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of p99, p98, ... p50 that has at least ten samples
/// beyond it, as (percentile, value).
pub fn tail(values: &[f64]) -> (u32, f64) {
    let n = values.len();
    let p = (50..=99)
        .rev()
        .find(|p| n.saturating_sub((n * *p as usize).div_ceil(100)) >= 10)
        .unwrap_or(50);
    (p, quantile(values, f64::from(p) / 100.0))
}

/// `key=value` counters from one or more stats replies, summed per key.
/// Keys in a `journal:` line get a `journal.` prefix.
pub fn stats_counters<'a>(replies: impl IntoIterator<Item = &'a str>) -> BTreeMap<String, f64> {
    let mut counters = BTreeMap::new();
    for reply in replies {
        for line in reply.lines() {
            let (prefix, body) = match line.strip_prefix("journal:") {
                Some(rest) => ("journal.", rest),
                None => ("", line),
            };
            for token in body.split_whitespace() {
                if let Some((key, value)) = token.split_once('=') {
                    if let Ok(v) = value.parse::<f64>() {
                        *counters.entry(format!("{prefix}{key}")).or_default() += v;
                    }
                }
            }
        }
    }
    counters
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&values).0, 99);
        let values: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&values).0, 95);
        assert_eq!(tail(&[1.0, 2.0]).0, 50);
    }

    #[test]
    fn counters_sum_across_replies_and_prefix_the_journal() {
        let c = stats_counters([
            "acks=3 tx-frames=4\njournal: records=2 fsyncs=1",
            "acks=5 tx-frames=6",
        ]);
        assert_eq!(c["acks"], 8.0);
        assert_eq!(c["journal.fsyncs"], 1.0);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = result_line(true, 3, 0, &[metric("x", 1.5, "ms", "")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}

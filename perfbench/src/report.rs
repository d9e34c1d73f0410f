//! Result assembly: named metrics with units, run notes, and the JSON
//! lines the benchmark prints.

use std::fmt::Write;

/// Why a run produced no numbers.
#[derive(Debug)]
pub enum RunError {
    /// A correctness check failed.
    Check(String),
    /// The system under test returned an error.
    Io(String),
}

impl RunError {
    pub fn check(message: impl Into<String>) -> Self {
        RunError::Check(message.into())
    }

    pub fn io(e: impl std::fmt::Display) -> Self {
        RunError::Io(e.to_string())
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Check(m) => write!(f, "correctness check failed: {m}"),
            RunError::Io(m) => write!(f, "error from the system under test: {m}"),
        }
    }
}

/// Metrics in insertion order, plus free-form numeric notes (sample
/// counts, repetitions) and the per-pass samples behind each median, which
/// travel in the report line only.
#[derive(Debug, Default)]
pub struct Metrics {
    pub values: Vec<(String, f64, &'static str)>,
    pub notes: Vec<(String, f64)>,
    pub samples: Vec<(String, Vec<f64>)>,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.push((name.to_owned(), value, unit));
    }

    /// Puts the median of `samples` (in pass order) and keeps the samples.
    pub fn put_median(&mut self, name: &str, samples: Vec<f64>, unit: &'static str) {
        let value = crate::stats::median(&samples).expect("every phase runs at least once");
        self.put(name, value, unit);
        self.sample(name, samples);
    }

    /// Puts the interquartile mean of `samples` (in pass order) and keeps
    /// the samples.
    pub fn put_interquartile_mean(&mut self, name: &str, samples: Vec<f64>, unit: &'static str) {
        let value =
            crate::stats::interquartile_mean(&samples).expect("every phase runs at least once");
        self.put(name, value, unit);
        self.sample(name, samples);
    }

    /// Keeps per-pass samples of `name` for the report line.
    pub fn sample(&mut self, name: &str, samples: Vec<f64>) {
        self.samples.push((name.to_owned(), samples));
    }

    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.push((name.to_owned(), value));
    }
}

/// What a run measured, with the operations it attempted and how many
/// failed.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` for the given metrics.
pub fn metrics_object(values: &[(String, f64, &'static str)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(*value),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line the benchmark ends with.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &[(String, f64, &'static str)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_object(values)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let values = vec![("setup_s".to_owned(), 0.5, "s")];
        assert_eq!(
            result_line(true, 3, 0, &values),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(quote("a\"b"), "\"a\\\"b\"");
        assert_eq!(number(1e-7), "1e-7");
    }
}

//! Result line, provenance and process measurements.

use std::path::Path;

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Escapes `s` for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final result line: `correct`, `attempted`, `failed` and every
/// metric by name with its value (all digits) and unit. Returns `None` if a
/// value is not finite, which JSON cannot carry.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Option<String> {
    let mut parts = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return None;
        }
        parts.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            m.value,
            json_str(m.unit)
        ));
    }
    Some(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit checked out in `root`, read from `root/.git` without running
/// git (which would search parent directories); `"unknown"` outside a git
/// checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            10,
            0,
            &[Metric::new("latency_p50_ms", 1.25, "ms"), Metric::new("setup_s", 0.5, "s")],
        )
        .expect("finite");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(result_line(true, 1, 0, &[Metric::new("x", f64::NAN, "ms")]), None);
    }

    #[test]
    fn values_keep_all_their_digits() {
        let line =
            result_line(false, 1, 1, &[Metric::new("t", 0.123456789012345, "s")]).expect("finite");
        assert!(line.contains("0.123456789012345"), "{line}");
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}

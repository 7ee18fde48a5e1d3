//! The run's result: metrics by name with their units, outcome counts,
//! and the one-line JSON summary printed last.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `ms` or `1/s`.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in insertion order.
    pub metrics: Vec<Metric>,
    /// Sessions (and, in `churn_crl`, epochs) attempted.
    pub attempted: u64,
    /// Of those, the ones that ended in the wrong class or failed a check.
    pub failed: u64,
    /// Reasons the run is not valid, beyond failed sessions (e.g. a
    /// paced generator that fell behind).
    pub invalid: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Counts one outcome; `ok == false` records `why` on stderr.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", why());
        }
    }

    /// Marks the run invalid.
    pub fn invalidate(&mut self, why: String) {
        eprintln!("perfbench: run invalid: {why}");
        self.invalid.push(why);
    }

    /// Did every outcome check pass and the run stay valid?
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty() && self.attempted > 0
    }

    /// Sessions that failed, as a share of those attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The summary line: `correct`, `attempted`, `failed` and the
    /// metrics named in `keep`.
    pub fn json(&self, keep: &[&str]) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| keep.contains(&m.name.as_str()))
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a non-finite value renders as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

//! What a run found: metrics by name, operations attempted and failed.

use std::collections::BTreeMap;

use relgraph_obs::json::{escape, num};

/// Accumulates one run's results. Every metric is one of the names in
/// `config::END_TO_END` (untraced run) or `config::PER_LAYER` (traced run)
/// and is set once; the last output line carries exactly those names.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, f64>,
    /// For a reader of the output: how a metric was taken on this workload.
    how: BTreeMap<String, String>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// Record a metric; setting a name twice is a bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let prior = self.metrics.insert(name.to_string(), value);
        assert!(prior.is_none(), "metric `{name}` set twice");
    }

    /// Record an end-to-end metric together with what it is on this
    /// workload and how it was taken.
    pub fn set_how(&mut self, name: &str, value: f64, how: String) {
        self.set(name, value);
        self.how.insert(name.to_string(), how);
    }

    /// `setup_s`: the median of the run's set-ups, with each one listed.
    pub fn set_setup(&mut self, seconds: &[f64]) {
        self.set_how(
            "setup_s",
            crate::stats::median(seconds),
            format!("median of {} set-ups: {seconds:.3?}", seconds.len()),
        );
    }

    /// Count the `n` operations of `phase`, `bad` of which gave a wrong,
    /// late or missing result.
    pub fn count(&mut self, phase: &str, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            self.failures
                .push(format!("{phase}: {bad} of {n} operations failed"));
        }
    }

    /// Count one check; when it does not hold, remember why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics of `names` one per line for a reader, then what failed,
    /// if anything did.
    pub fn print(&self, names: &[(&str, &str)]) {
        for (name, unit) in names {
            if let Some(v) = self.metrics.get(*name) {
                let how = self.how.get(*name).map_or("", String::as_str);
                println!("{name:<50} {v:>18.6} {unit:<8} {how}");
            }
        }
        for f in &self.failures {
            println!("FAILED: {f}");
        }
    }

    /// The result line: every name of `names` exactly once, in order. A
    /// missing name reads 0 when `idle_is_zero` (a layer the workload never
    /// entered) and is a bug otherwise.
    pub fn result_line(&self, names: &[(&str, &str)], idle_is_zero: bool) -> String {
        for name in self.metrics.keys() {
            assert!(
                names.iter().any(|(n, _)| n == name),
                "metric `{name}` is not in the list this run reports"
            );
        }
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = match self.metrics.get(*name) {
                    Some(v) => *v,
                    None if idle_is_zero => 0.0,
                    None => panic!("end-to-end metric `{name}` was not measured"),
                };
                assert!(value.is_finite(), "metric `{name}` is not finite");
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    escape(name),
                    num(value),
                    escape(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

//! The benchmark's result: operation counts, correctness checks, named
//! metrics, and the per-layer tables of a traced run.

use crate::stats::tail;
use std::fmt::Write as _;

/// Everything one run reports. Metrics keep insertion order.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    failed_checks: Vec<String>,
    metrics: Vec<(String, f64, String)>,
    notes: Vec<String>,
}

impl Report {
    /// Counts one operation (a train step, tick or request) and whether
    /// it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// A correctness check. It counts as one operation, and a failed
    /// check both fails that operation and makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.op(ok);
        if !ok {
            eprintln!("correctness check failed: {what}");
            self.failed_checks.push(what.to_string());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed_checks.is_empty()
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        if !value.is_finite() {
            self.check(false, &format!("metric {name} is not finite"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn has_metric(&self, name: &str) -> bool {
        self.metrics.iter().any(|m| m.0 == name)
    }

    /// The name and unit of every metric so far.
    pub fn units(&self) -> Vec<(String, String)> {
        self.metrics
            .iter()
            .map(|m| (m.0.clone(), m.2.clone()))
            .collect()
    }

    /// The tail of a latency sample as per-layer metrics, with the
    /// percentile it sits at and the sample count beside it.
    pub fn tail_metrics(&mut self, ms: &[f64]) {
        let t = tail(ms);
        self.metric("latency_tail_ms", t.value, "ms");
        self.metric("latency_tail_pct", t.percentile, "%");
        self.metric("latency_samples", t.samples as f64, "count");
    }

    /// A free-form line printed above the result (percentile and sample
    /// count beside a tail, the loop shape, …).
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Human-readable lines, then the one-line JSON result last.
    pub fn print(&self) {
        for n in &self.notes {
            println!("{n}");
        }
        for (name, value, unit) in &self.metrics {
            println!("  {name:<44} {value:>14.6} {unit}");
        }
        println!(
            "  operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// A per-layer breakdown of one operation's wall time: the timed layers,
/// then the residual the layers do not cover, so the rows sum to the
/// wall time.
pub struct Table {
    title: String,
    wall_ms: f64,
    rows: Vec<(String, f64)>,
}

impl Table {
    pub fn new(title: impl Into<String>, wall_ms: f64) -> Self {
        Table {
            title: title.into(),
            wall_ms,
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, name: &str, ms: f64) -> &mut Self {
        self.rows.push((name.to_string(), ms));
        self
    }

    pub fn residual_ms(&self) -> f64 {
        self.wall_ms - self.rows.iter().map(|r| r.1).sum::<f64>()
    }

    pub fn render(&self) -> String {
        let mut out = format!("{} — {:.3} ms per operation\n", self.title, self.wall_ms);
        let share = |ms: f64| {
            if self.wall_ms > 0.0 {
                100.0 * ms / self.wall_ms
            } else {
                0.0
            }
        };
        for (name, ms) in &self.rows {
            let _ = writeln!(out, "  {name:<36} {ms:>10.3} ms {:>6.1} %", share(*ms));
        }
        let r = self.residual_ms();
        let _ = writeln!(
            out,
            "  {:<36} {r:>10.3} ms {:>6.1} %",
            "(residual)",
            share(r)
        );
        out
    }
}

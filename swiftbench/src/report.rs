//! The metric catalog and the one-line JSON result.

use crate::stats;

/// End-to-end metrics (`--trace 0`): name, unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("samples_per_s", "samples/s"),
    ("mttr_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name, unit.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("data.batch_ms", "ms"),
    ("tensor.pool_miss_ratio", "ratio"),
    ("dnn.forward_ms", "ms"),
    ("dnn.backward_ms", "ms"),
    ("dnn.state_encode_ms", "ms"),
    ("dnn.state_decode_ms", "ms"),
    ("optim.update_ms", "ms"),
    ("optim.undo_ms", "ms"),
    ("net.allreduce_ms", "ms"),
    ("net.allreduce_gbps", "GB/s"),
    ("net.broadcast_ms", "ms"),
    ("net.scatter_ms", "ms"),
    ("net.state_gbps", "GB/s"),
    ("net.p2p_ms", "ms"),
    ("net.kv_wake_us", "us"),
    ("store.put_ms", "ms"),
    ("store.get_ms", "ms"),
    ("store.upload_ms", "ms"),
    ("wal.log_ms", "ms"),
    ("wal.flush_ms", "ms"),
    ("wal.read_ms", "ms"),
    ("wal.bytes_per_iter", "bytes"),
    ("wal.spill_ratio", "ratio"),
    ("ckpt.save_ms", "ms"),
    ("ckpt.load_ms", "ms"),
    ("ckpt.bytes_per_save", "bytes"),
    ("pipeline.bubble_share", "ratio"),
    ("pipeline.idle_share", "ratio"),
    ("core.step_ms", "ms"),
    ("core.plain_step_ms", "ms"),
    ("core.step_unattributed_ms", "ms"),
    ("core.detect_ms", "ms"),
    ("core.undo_ms", "ms"),
    ("core.fence_ms", "ms"),
    ("core.transfer_ms", "ms"),
    ("core.replay_ms", "ms"),
    ("core.resume_ms", "ms"),
    ("core.mttr_traced_ms", "ms"),
    ("core.fence_call_us", "us"),
    ("obs.trace_overhead", "ratio"),
    ("obs.samples_per_s_traced", "samples/s"),
    ("obs.samples_per_s_untraced", "samples/s"),
];

/// One run's result: what was attempted, what failed, what was measured.
pub struct Report {
    trace: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn new(trace: bool) -> Self {
        Report {
            trace,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Counts one failed op and says why on stderr.
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("swiftbench: FAILED: {why}");
    }

    /// Records `name` (which must be in the catalog for this mode).
    pub fn metric(&mut self, name: &str, value: f64) {
        let (name, _) = self
            .catalog()
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a metric of this mode"));
        self.metrics.retain(|(n, _)| n != name);
        self.metrics.push((name, value));
    }

    /// Records `stat` of `values`; with no values the metric stays
    /// missing and the result reads incorrect.
    pub fn metric_of(&mut self, name: &str, stat: fn(&[f64]) -> Option<f64>, values: &[f64]) {
        if let Some(m) = stat(values) {
            self.metric(name, m);
        }
    }

    /// Prints the sample count, quartiles, interquartile mean and the
    /// highest percentile with at least ten samples beyond it
    /// (information only).
    pub fn info_distribution(&self, name: &str, values: &[f64]) {
        let q = stats::quartiles(values).map_or("-".into(), |q| {
            format!("q1={:.4} median={:.4} q3={:.4}", q[0], q[1], q[2])
        });
        let iqm = stats::interquartile_mean(values).unwrap_or(f64::NAN);
        let tail = stats::tail_percentile(values)
            .map_or("tail=n/a (<20 samples)".into(), |(p, v)| {
                format!("p{p}={v:.4}")
            });
        println!("# {name}: n={} {q} iqm={iqm:.4} {tail}", values.len());
    }

    pub fn catalog(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The JSON result. It reads correct only when no op failed and every
    /// metric was measured.
    pub fn to_json(&self) -> String {
        let mut body = Vec::new();
        let mut complete = true;
        for &(name, unit) in self.catalog() {
            match self.metrics.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) if v.is_finite() => body.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                )),
                _ => {
                    eprintln!("swiftbench: metric {name} was not measured");
                    complete = false;
                }
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            complete && self.failed == 0 && self.attempted > 0,
            self.attempted.max(self.failed).max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (name, unit) in &all {
            assert!(valid(name), "bad metric name {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mib() > 0.0);
    }
}

//! Result assembly: named metrics with units and sample counts, the host
//! block, the deterministic-output digest and the final JSON line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (0 when the workload does not run the
    /// layer and the value is 0 by construction).
    pub samples: usize,
}

/// Metric list under construction.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        debug_assert!(self.0.iter().all(|m| m.name != name), "{name} twice");
        self.0.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    pub metrics: Metrics,
    /// Digest of the deterministic outputs (fixed-size prefix of the
    /// run's publications, convergence reports): equal across runs of one
    /// seed.
    pub digest: u64,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Host facts printed with every result.
pub fn host_block(rustc: &str, commit: &str) -> Vec<String> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let ram_mib = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| kib_field(&s, "MemTotal:"))
        .map_or(0, |kib| kib / 1024);
    vec![
        format!("host: cores={cores} ram_mib={ram_mib}"),
        format!("host: rustc={rustc}"),
        format!("host: commit={commit}"),
    ]
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| kib_field(&s, "VmHWM:"))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn kib_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Prints the human-readable report and, as the last line, the JSON
/// object a benchmark runner reads.
pub fn print(outcome: &Outcome) {
    for line in &outcome.notes {
        println!("{line}");
    }
    println!("digest: {:016x}", outcome.digest);
    for m in &outcome.metrics.0 {
        println!(
            "metric {:<34} {:>16} {:<9} samples={}",
            m.name,
            format!("{:.4}", m.value),
            m.unit,
            m.samples
        );
    }
    println!(
        "result: correct={} attempted={} failed={}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    println!("{}", json(outcome));
}

/// The final JSON line: `correct`, `attempted`, `failed`, `metrics`.
pub fn json(outcome: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, m) in outcome.metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_result_keys() {
        let mut metrics = Metrics::default();
        metrics.put("setup_s", "s", 0.8127, 3);
        metrics.put("converge_rounds", "count", 8.0, 1);
        let out = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics,
            digest: 1,
            notes: vec![],
        };
        assert_eq!(
            json(&out),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"converge_rounds\": {\"value\": 8.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let d = |ws: &[u64]| {
            let mut d = Digest::default();
            d.words(ws.iter().copied());
            d.value()
        };
        assert_eq!(d(&[1, 2]), d(&[1, 2]));
        assert_ne!(d(&[1, 2]), d(&[2, 1]));
    }
}

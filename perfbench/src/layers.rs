//! Per-layer metrics of the traced run.
//!
//! Workloads push raw samples under a key (a span name or a counter); the
//! fixed [`LAYER_METRICS`] table turns them into the reported metrics. A
//! layer the workload does not run has no samples and reports 0 with
//! `samples=0`.

use crate::report::Metrics;
use crate::stats;
use std::collections::BTreeMap;

/// Raw per-layer samples keyed by source name.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, key: &'static str, value: f64) {
        self.0.entry(key).or_default().push(value);
    }

    /// Pushes a span duration given in nanoseconds; skipped when 0 (the
    /// tracer is off and nothing was timed).
    pub fn push_ns(&mut self, key: &'static str, ns: u64) {
        if ns > 0 {
            self.push(key, ns as f64);
        }
    }

    pub fn get(&self, key: &str) -> &[f64] {
        self.0.get(key).map_or(&[], Vec::as_slice)
    }
}

/// How a metric is computed from its source samples.
#[derive(Clone, Copy, Debug)]
pub enum Agg {
    /// Median of nanosecond samples, scaled by the factor (1e-3 → µs).
    MedianNs(f64),
    /// Nearest-rank p99 of nanosecond samples, scaled.
    P99Ns(f64),
    /// Mean of the samples.
    Mean,
}

/// `(metric, unit, source key, aggregation)` in output order.
#[rustfmt::skip]
pub const LAYER_METRICS: &[(&str, &str, &str, Agg)] = &[
    ("graph.generate_ms", "ms", "graph.generate", Agg::MedianNs(1e-6)),
    ("network.bootstrap_ms", "ms", "network.bootstrap", Agg::MedianNs(1e-6)),
    ("network.set_offline_us", "us", "network.set_offline", Agg::MedianNs(1e-3)),
    ("network.set_online_us", "us", "network.set_online", Agg::MedianNs(1e-3)),
    ("gossip.moving_round_ms", "ms", "gossip.moving_round", Agg::MedianNs(1e-6)),
    ("gossip.settling_round_ms", "ms", "gossip.settling_round", Agg::MedianNs(1e-6)),
    ("gossip.quiet_round_ms", "ms", "gossip.quiet_round", Agg::MedianNs(1e-6)),
    ("gossip.repair_round_ms", "ms", "gossip.repair_round", Agg::MedianNs(1e-6)),
    ("gossip.id_moves", "count/round", "gossip.id_moves", Agg::Mean),
    ("gossip.link_changes", "count/round", "gossip.link_changes", Agg::Mean),
    ("gossip.messages", "count/round", "gossip.messages", Agg::Mean),
    ("gossip.bucket_hit_ratio", "ratio", "gossip.bucket_hit_ratio", Agg::Mean),
    ("recovery.probe_round_ms", "ms", "recovery.probe_round", Agg::MedianNs(1e-6)),
    ("recovery.probes", "count/round", "recovery.probes", Agg::Mean),
    ("recovery.kept", "count/round", "recovery.kept", Agg::Mean),
    ("recovery.replaced", "count/round", "recovery.replaced", Agg::Mean),
    ("recovery.dropped", "count/round", "recovery.dropped", Agg::Mean),
    ("recovery.eviction_losses", "count/round", "recovery.eviction_losses", Agg::Mean),
    ("pubsub.online_friends_us", "us", "pubsub.online_friends", Agg::MedianNs(1e-3)),
    ("pubsub.relayed_share", "ratio", "pubsub.relayed", Agg::Mean),
    ("pubsub.relayed_publish_us", "us", "pubsub.relayed_publish", Agg::MedianNs(1e-3)),
    ("pubsub.direct_publish_us", "us", "pubsub.direct_publish", Agg::MedianNs(1e-3)),
    ("pubsub.subscribers_per_publish", "count/pub", "pubsub.subscribers", Agg::Mean),
    ("pubsub.allocs_per_publish", "count/pub", "pubsub.allocs", Agg::Mean),
    ("pubsub.alloc_bytes_per_publish", "B/pub", "pubsub.alloc_bytes", Agg::Mean),
    ("pubsub.retries_per_publish", "count/pub", "pubsub.retries", Agg::Mean),
    ("pubsub.reroutes_per_publish", "count/pub", "pubsub.reroutes", Agg::Mean),
    ("pubsub.drops_per_publish", "count/pub", "pubsub.drops", Agg::Mean),
    ("pubsub.residual_losses_per_publish", "count/pub", "pubsub.residual_losses", Agg::Mean),
    ("overlay.lookup_p50_us", "us", "overlay.lookup", Agg::MedianNs(1e-3)),
    ("overlay.lookup_p99_us", "us", "overlay.lookup", Agg::P99Ns(1e-3)),
    ("overlay.connections_us", "us", "overlay.connections", Agg::MedianNs(1e-3)),
    ("obs.observed_overhead_pct", "%", "obs.observed_overhead_pct", Agg::Mean),
    ("wire.children_of_us", "us", "wire.children_of", Agg::MedianNs(1e-3)),
    ("wire.publish_self_us", "us", "wire.publish_self", Agg::MedianNs(1e-3)),
    ("codec.encode_ns", "ns", "codec.encode", Agg::MedianNs(1.0)),
    ("codec.decode_ns", "ns", "codec.decode", Agg::MedianNs(1.0)),
    ("codec.bytes_per_publish", "B/pub", "codec.bytes", Agg::Mean),
    ("transport.spawn_ms", "ms", "transport.spawn", Agg::MedianNs(1e-6)),
    ("transport.send_us", "us", "transport.send", Agg::MedianNs(1e-3)),
    ("transport.ack_wait_us", "us", "transport.ack_wait", Agg::MedianNs(1e-3)),
    ("transport.frames_per_publish", "count/pub", "transport.frames", Agg::Mean),
    ("transport.reconnects_per_publish", "count/pub", "transport.reconnects", Agg::Mean),
    ("transport.retransmissions", "count/pub", "transport.retransmissions", Agg::Mean),
    ("transport.ack_window_expiries", "count/pub", "transport.ack_window_expiries", Agg::Mean),
    ("bench.trace_overhead_pct", "%", "bench.trace_overhead_pct", Agg::Mean),
];

/// Computes every [`LAYER_METRICS`] entry from `samples`.
pub fn per_layer(samples: &Samples) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit, key, agg) in LAYER_METRICS {
        let v = samples.get(key);
        let value = match agg {
            Agg::MedianNs(scale) => stats::median(v).map(|x| x * scale),
            Agg::P99Ns(scale) => {
                let mut s = v.to_vec();
                s.sort_by(f64::total_cmp);
                stats::percentile(&s, 99.0).map(|x| x * scale)
            }
            Agg::Mean => (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64),
        };
        out.put(name, unit, value.unwrap_or(0.0), v.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_aggregate_their_sources_and_default_to_zero() {
        let mut s = Samples::default();
        for ns in [1_000.0, 3_000.0, 2_000.0] {
            s.push("overlay.lookup", ns);
        }
        s.push("pubsub.relayed", 1.0);
        s.push("pubsub.relayed", 0.0);
        s.push_ns("transport.send", 0);
        let m = per_layer(&s);
        let get = |n: &str| m.0.iter().find(|x| x.name == n).unwrap().clone();
        assert_eq!(get("overlay.lookup_p50_us").value, 2.0);
        assert_eq!(get("overlay.lookup_p99_us").value, 3.0);
        assert_eq!(get("pubsub.relayed_share").value, 0.5);
        let send = get("transport.send_us");
        assert_eq!((send.value, send.samples), (0.0, 0));
        assert_eq!(m.0.len(), LAYER_METRICS.len());
    }
}

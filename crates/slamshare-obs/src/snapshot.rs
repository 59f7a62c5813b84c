//! Drained observability state: one serializable [`ObsSnapshot`].
//!
//! Metric keys follow Prometheus naming: lowercase, underscores, a
//! `slamshare_` namespace prefix, and a unit suffix — `_ms` for latency
//! histograms, `_total` for counters. The dotted span taxonomy used at
//! instrumentation sites (`round.track`, `track.extract`) maps onto this
//! by replacing separators: `round.track` → `slamshare_round_track_ms`,
//! `gmap.region_read_hold` → `slamshare_gmap_region_read_hold_ms`; a name
//! used for both a span and a counter (`round.retrack`) exports as
//! `slamshare_round_retrack_ms` and `slamshare_round_retrack_total`.

use crate::hist::HistSnapshot;
use serde::Serialize;
use std::collections::BTreeMap;

/// Lowercase a dotted/hyphenated metric name into a Prometheus token.
fn sanitize(name: &str) -> String {
    name.trim()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// Prometheus-style key for a latency histogram (`round.track` →
/// `slamshare_round_track_ms`).
pub fn prom_hist_key(name: &str) -> String {
    format!("slamshare_{}_ms", sanitize(name))
}

/// Prometheus-style key for a counter (`merge.submitted` →
/// `slamshare_merge_submitted_total`).
pub fn prom_counter_key(name: &str) -> String {
    format!("slamshare_{}_total", sanitize(name))
}

/// Prometheus-style key for a gauge (`lifecycle.map_bytes` →
/// `slamshare_lifecycle_map_bytes`). Gauges carry their unit in
/// the site name, so only the namespace prefix is added.
pub fn prom_gauge_key(name: &str) -> String {
    format!("slamshare_{}", sanitize(name))
}

/// One completed span in export form (times in microseconds).
#[derive(Debug, Clone, Serialize)]
pub struct SpanEvent {
    /// Dense id of the recording thread.
    pub thread: usize,
    pub name: String,
    /// Nesting depth at entry: 0 = root.
    pub depth: u16,
    pub start_us: u64,
    pub dur_us: u64,
}

/// Point-in-time export of every histogram, counter, and span ring.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ObsSnapshot {
    /// Whether recording was enabled when the snapshot was taken.
    pub enabled: bool,
    /// Latency histograms, keyed by [`prom_hist_key`].
    pub histograms: BTreeMap<String, HistSnapshot>,
    /// Counters, keyed by [`prom_counter_key`].
    pub counters: BTreeMap<String, u64>,
    /// Last-value gauges, keyed by [`prom_gauge_key`].
    pub gauges: BTreeMap<String, u64>,
    /// Recent spans from every thread ring, oldest first per thread.
    pub spans: Vec<SpanEvent>,
}

impl ObsSnapshot {
    /// Look up a histogram by raw dotted name (`"round.track"`) or by
    /// its full Prometheus key.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms
            .get(&prom_hist_key(name))
            .or_else(|| self.histograms.get(name))
    }

    /// Look up a counter by raw dotted name or full Prometheus key;
    /// absent counters read 0.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .get(&prom_counter_key(name))
            .or_else(|| self.counters.get(name))
            .copied()
            .unwrap_or(0)
    }

    /// Look up a gauge by raw dotted name or full Prometheus key;
    /// absent gauges read 0.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .get(&prom_gauge_key(name))
            .or_else(|| self.gauges.get(name))
            .copied()
            .unwrap_or(0)
    }

    /// The snapshot as pretty-printed JSON (empty string only if
    /// serialization fails, which no constructible snapshot does).
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_keys_follow_convention() {
        assert_eq!(prom_hist_key("round.track"), "slamshare_round_track_ms");
        assert_eq!(
            prom_hist_key("gmap.region_lock-wait"),
            "slamshare_gmap_region_lock_wait_ms"
        );
        assert_eq!(
            prom_hist_key("gmap.region_read_hold"),
            "slamshare_gmap_region_read_hold_ms"
        );
        assert_eq!(
            prom_hist_key("gmap.region_write_hold"),
            "slamshare_gmap_region_write_hold_ms"
        );
        assert_eq!(
            prom_counter_key("merge.submitted"),
            "slamshare_merge_submitted_total"
        );
        // A span and a counter may share a site name; the unit suffix
        // keeps their keys apart.
        assert_eq!(prom_hist_key("round.retrack"), "slamshare_round_retrack_ms");
        assert_eq!(
            prom_counter_key("round.retrack"),
            "slamshare_round_retrack_total"
        );
        assert_eq!(
            prom_gauge_key("lifecycle.map_bytes"),
            "slamshare_lifecycle_map_bytes"
        );
    }

    #[test]
    fn lookup_accepts_raw_and_prom_names() {
        let mut snap = ObsSnapshot::default();
        snap.histograms
            .insert(prom_hist_key("round.track"), HistSnapshot::default());
        snap.counters.insert(prom_counter_key("merge.submitted"), 7);
        snap.gauges
            .insert(prom_gauge_key("lifecycle.map_bytes"), 4096);
        assert!(snap.hist("round.track").is_some());
        assert!(snap.hist("slamshare_round_track_ms").is_some());
        assert_eq!(snap.counter("merge.submitted"), 7);
        assert_eq!(snap.counter("missing.counter"), 0);
        assert_eq!(snap.gauge("lifecycle.map_bytes"), 4096);
        assert_eq!(snap.gauge("missing.gauge"), 0);
    }

    #[test]
    fn serializes_to_json_object() {
        let snap = ObsSnapshot::default();
        let text = snap.to_json_string();
        assert!(text.contains("\"histograms\""));
        assert!(text.contains("\"counters\""));
        assert!(text.contains("\"spans\""));
    }
}

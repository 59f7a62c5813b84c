//! Integration tests that exercise the global switch and registry.
//!
//! These flip the process-wide enabled flag, so they serialize on one
//! mutex instead of trusting the test harness's thread scheduling.

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

static GATE: Mutex<()> = Mutex::new(());

/// Run `f` with recording enabled on a clean registry, restoring the
/// disabled default afterwards.
fn with_obs_on(f: impl FnOnce()) {
    let _g = GATE.lock();
    slamshare_obs::reset();
    slamshare_obs::set_enabled(true);
    f();
    slamshare_obs::set_enabled(false);
    slamshare_obs::reset();
}

#[test]
fn disabled_sites_record_nothing() {
    let _g = GATE.lock();
    slamshare_obs::reset();
    assert!(!slamshare_obs::enabled(), "recording must default to off");
    {
        let _s = slamshare_obs::span!("test.disabled_span");
        std::thread::sleep(Duration::from_millis(1));
    }
    slamshare_obs::observe_ms!("test.disabled_hist", 5.0);
    slamshare_obs::counter_inc!("test.disabled_counter");
    let snap = slamshare_obs::snapshot();
    assert!(!snap.enabled);
    assert!(snap.hist("test.disabled_span").is_none());
    assert!(snap.hist("test.disabled_hist").is_none());
    assert_eq!(snap.counter("test.disabled_counter"), 0);
    assert!(snap
        .spans
        .iter()
        .all(|s| !s.name.starts_with("test.disabled")));
}

#[test]
fn span_macro_records_histogram_and_ring() {
    with_obs_on(|| {
        for _ in 0..8 {
            let _s = slamshare_obs::span!("test.basic_span");
            std::thread::sleep(Duration::from_micros(200));
        }
        let snap = slamshare_obs::snapshot();
        assert!(snap.enabled);
        let h = snap.hist("test.basic_span").expect("histogram registered");
        assert_eq!(h.count, 8);
        assert!(h.p50_ms > 0.0);
        assert!(h.p95_ms >= h.p50_ms);
        assert!(h.p99_ms >= h.p95_ms);
        let events: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "test.basic_span")
            .collect();
        assert_eq!(events.len(), 8);
        assert!(events.iter().all(|e| e.depth == 0));
    });
}

#[test]
fn nested_spans_track_depth_under_concurrency() {
    with_obs_on(|| {
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..16 {
                    let _outer = slamshare_obs::span!("test.nest_outer");
                    std::thread::sleep(Duration::from_micros(50));
                    {
                        let _inner = slamshare_obs::span!("test.nest_inner");
                        std::thread::sleep(Duration::from_micros(50));
                        let _leaf = slamshare_obs::span!("test.nest_leaf");
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }

        let snap = slamshare_obs::snapshot();
        let outer = snap.hist("test.nest_outer").unwrap();
        let inner = snap.hist("test.nest_inner").unwrap();
        let leaf = snap.hist("test.nest_leaf").unwrap();
        assert_eq!(outer.count, 64);
        assert_eq!(inner.count, 64);
        assert_eq!(leaf.count, 64);
        // The parent strictly contains the child.
        assert!(outer.p50_ms >= inner.p50_ms);
        assert!(inner.p50_ms >= leaf.p50_ms);

        // Depths are consistent on every thread despite interleaving:
        // outer always 0, inner always 1, leaf always 2.
        for ev in &snap.spans {
            match ev.name.as_str() {
                "test.nest_outer" => assert_eq!(ev.depth, 0, "outer at depth {}", ev.depth),
                "test.nest_inner" => assert_eq!(ev.depth, 1, "inner at depth {}", ev.depth),
                "test.nest_leaf" => assert_eq!(ev.depth, 2, "leaf at depth {}", ev.depth),
                _ => {}
            }
        }
        // All four worker threads contributed distinct rings.
        let threads: std::collections::BTreeSet<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "test.nest_outer")
            .map(|s| s.thread)
            .collect();
        assert_eq!(threads.len(), 4);
    });
}

#[test]
fn observe_and_counter_macros_roundtrip() {
    with_obs_on(|| {
        for ms in [1.0, 2.0, 3.0, 4.0] {
            slamshare_obs::observe_ms!("test.premeasured", ms);
        }
        slamshare_obs::counter_add!("test.events", 5);
        slamshare_obs::counter_inc!("test.events");
        let snap = slamshare_obs::snapshot();
        let h = snap.hist("test.premeasured").unwrap();
        assert_eq!(h.count, 4);
        assert!((h.max_ms - 4.0).abs() < 0.5);
        assert_eq!(snap.counter("test.events"), 6);
        // Export keys follow the Prometheus convention.
        assert!(snap
            .histograms
            .contains_key("slamshare_test_premeasured_ms"));
        assert!(snap.counters.contains_key("slamshare_test_events_total"));
    });
}

#[test]
fn reset_clears_data_but_keeps_registration() {
    with_obs_on(|| {
        {
            let _s = slamshare_obs::span!("test.reset_span");
        }
        slamshare_obs::counter_inc!("test.reset_counter");
        slamshare_obs::reset();
        let snap = slamshare_obs::snapshot();
        // Names survive with zeroed contents.
        let h = snap.hist("test.reset_span").expect("name survives reset");
        assert_eq!(h.count, 0);
        assert_eq!(snap.counter("test.reset_counter"), 0);
        assert!(snap.spans.is_empty());
        // The cached call-site pointer still works after reset.
        {
            let _s = slamshare_obs::span!("test.reset_span");
        }
        assert_eq!(
            slamshare_obs::snapshot()
                .hist("test.reset_span")
                .unwrap()
                .count,
            1
        );
    });
}

#[test]
fn snapshot_serializes_to_json() {
    with_obs_on(|| {
        {
            let _s = slamshare_obs::span!("test.json_span");
        }
        let snap = slamshare_obs::snapshot();
        let text = snap.to_json_string();
        assert!(text.contains("\"slamshare_test_json_span_ms\""));
        assert!(text.contains("\"p95_ms\""));
        assert!(text.contains("\"count\""));
    });
}

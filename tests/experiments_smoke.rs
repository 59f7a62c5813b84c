//! Smoke-run every paper experiment end-to-end and sanity-check the
//! rendered outputs. The full-scale versions run under `cargo bench`.

use slam_share::harness::experiments::*;

#[test]
fn table1_smoke() {
    let r = table1::run(Effort::Smoke);
    assert!(r.render_text().contains("Table 1"));
    assert!(r.rows.len() >= 2);
}

#[test]
fn fig5_smoke() {
    let r = fig5::run(Effort::Smoke);
    assert!(r.render_text().contains("Fig. 5"));
    assert!(!r.rows.is_empty());
}

#[test]
fn fig8_smoke() {
    let r = fig8::run(Effort::Smoke);
    assert!(r.render_text().contains("Fig. 8"));
    assert!(!r.rows.is_empty());
}

#[test]
fn table2_smoke() {
    let r = table2::run(Effort::Smoke);
    assert!(r.render_text().contains("Table 2"));
    assert_eq!(r.rows.len(), 3);
}

#[test]
fn table3_smoke() {
    let r = table3::run(Effort::Smoke);
    assert!(r.render_text().contains("Table 3"));
    assert!(!r.columns.is_empty());
}

#[test]
fn fig10_smoke() {
    let r = fig10::run_euroc(Effort::Smoke);
    assert!(r.render_text().contains("Fig. 10"));
    assert!(!r.ate_series.is_empty());
}

#[test]
fn table4_smoke() {
    let r = table4::run(Effort::Smoke);
    assert!(r.render_text().contains("Table 4"));
    assert!(r.speedup > 1.0);
}

#[test]
fn fig11_smoke() {
    let r = fig11::run(Effort::Smoke);
    assert!(r.render_text().contains("Fig. 11"));
}

#[test]
fn fig12_smoke() {
    let r = fig12::run(Effort::Smoke);
    assert!(r.render_text().contains("Fig. 12"));
    assert!(!r.cases.is_empty());
}

#[test]
fn fig13_smoke() {
    let r = fig13::run(Effort::Smoke);
    assert!(r.render_text().contains("Fig. 13"));
    assert!(r.ratio > 1.0);
}

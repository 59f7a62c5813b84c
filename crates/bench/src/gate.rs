//! Bench-regression gate: compare fresh `results/BENCH_*.json` p95
//! latencies against the committed baselines in `results/baselines/`.
//!
//! The vendored `serde_json` is serialize-only, so this module carries
//! its own minimal recursive-descent JSON reader — just enough to walk
//! the bench reports (objects, arrays, numbers, strings, bools, null).
//!
//! A **metric** is any numeric field whose key contains `p95`, addressed
//! by its path (e.g. `BENCH_mapping:commit[2].p95_commit_ms`); a row that
//! names its `stage` is addressed by that name
//! (`BENCH_obs:stages[round.retrack].p95_ms`), so adding or dropping a
//! stage cannot silently re-pair the others. The gate
//! is one-sided: only increases beyond the tolerance fail, improvements
//! always pass. A metric present in the baseline but missing from the
//! fresh report also fails — silently dropping a measurement must not
//! read as "no regression".
//!
//! Tolerance is `SLAMSHARE_BENCH_TOL` percent (default 15), plus a small
//! absolute slack of [`ABS_SLACK_MS`] so microsecond-scale stages don't
//! trip the relative check on scheduler jitter alone.
//!
//! Keys containing `max_bytes` are **absolute ceilings**, not latencies:
//! they are deterministic byte counts (e.g. the soak's peak measured
//! map size), so no jitter tolerance applies — any increase over the
//! committed baseline is a regression.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Default relative tolerance, percent.
pub const DEFAULT_TOL_PCT: f64 = 15.0;
/// Absolute slack added on top of the relative tolerance, ms.
pub const ABS_SLACK_MS: f64 = 0.25;

// ---------------------------------------------------------------------
// Minimal JSON reader.
// ---------------------------------------------------------------------

/// A parsed JSON value (reader-side mirror of `serde::Value`).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Parse a complete JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if b.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {pos}",
            char::from(ch),
            pos = *pos
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
            }
            Some(&ch) => {
                // Multi-byte UTF-8 passes through byte-for-byte.
                let len = match ch {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let chunk = b.get(*pos..*pos + len).ok_or("truncated UTF-8")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|_| "bad UTF-8")?);
                *pos += len;
            }
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

// ---------------------------------------------------------------------
// Metric extraction and comparison.
// ---------------------------------------------------------------------

/// Recursively collect every numeric field whose key contains `p95` or
/// `p99` (tail latencies are what the SLOs bind) or `max_bytes`
/// (deterministic footprint ceilings), keyed by its path
/// (`section[3].p95_latency_ms`, or `stages[round.retrack].p95_ms` for
/// a row with a `stage` name).
pub fn collect_p95(json: &Json, path: &str, out: &mut BTreeMap<String, f64>) {
    match json {
        Json::Obj(fields) => {
            for (key, value) in fields {
                let child = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                if let Json::Num(n) = value {
                    if key.contains("p95") || key.contains("p99") || key.contains("max_bytes") {
                        out.insert(child, *n);
                        continue;
                    }
                }
                collect_p95(value, &child, out);
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                let stage = match item {
                    Json::Obj(fields) => fields.iter().find_map(|(k, v)| match v {
                        Json::Str(name) if k == "stage" => Some(name.as_str()),
                        _ => None,
                    }),
                    _ => None,
                };
                let child = match stage {
                    Some(name) => format!("{path}[{name}]"),
                    None => format!("{path}[{i}]"),
                };
                collect_p95(item, &child, out);
            }
        }
        _ => {}
    }
}

/// One metric's verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    Ok,
    Improved,
    Regressed,
    MissingInCurrent,
}

/// One row of the gate report.
#[derive(Debug, Clone)]
pub struct Delta {
    pub metric: String,
    pub baseline: f64,
    pub current: Option<f64>,
    pub delta_pct: f64,
    pub verdict: Verdict,
}

/// Compare one report pair. `tol_pct` is the allowed one-sided increase.
pub fn compare(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    tol_pct: f64,
) -> Vec<Delta> {
    baseline
        .iter()
        .map(|(metric, &base)| match current.get(metric) {
            None => Delta {
                metric: metric.clone(),
                baseline: base,
                current: None,
                delta_pct: 0.0,
                verdict: Verdict::MissingInCurrent,
            },
            Some(&cur) => {
                let delta_pct = if base.abs() > f64::EPSILON {
                    (cur - base) / base * 100.0
                } else if cur.abs() > f64::EPSILON {
                    100.0
                } else {
                    0.0
                };
                // Footprint ceilings are deterministic byte counts: the
                // baseline IS the budget, no jitter tolerance.
                let ceiling = if metric.contains("max_bytes") {
                    base
                } else {
                    base * (1.0 + tol_pct / 100.0) + ABS_SLACK_MS
                };
                let verdict = if cur > ceiling {
                    Verdict::Regressed
                } else if cur < base {
                    Verdict::Improved
                } else {
                    Verdict::Ok
                };
                Delta {
                    metric: metric.clone(),
                    baseline: base,
                    current: Some(cur),
                    delta_pct,
                    verdict,
                }
            }
        })
        .collect()
}

/// Render the per-metric delta table.
pub fn render(report: &[(String, Vec<Delta>)], tol_pct: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench gate: tolerance +{tol_pct:.0} % (+{ABS_SLACK_MS} ms slack), one-sided"
    );
    let _ = writeln!(
        out,
        "{:<58} {:>10} {:>10} {:>8}  status",
        "metric", "baseline", "current", "delta"
    );
    for (file, deltas) in report {
        for d in deltas {
            let status = match d.verdict {
                Verdict::Ok => "ok",
                Verdict::Improved => "ok (improved)",
                Verdict::Regressed => "REGRESSED",
                Verdict::MissingInCurrent => "MISSING in current",
            };
            let current = d
                .current
                .map(|c| format!("{c:10.3}"))
                .unwrap_or_else(|| format!("{:>10}", "-"));
            let _ = writeln!(
                out,
                "{:<58} {:>10.3} {current} {:>+7.1}%  {status}",
                format!("{file}:{}", d.metric),
                d.baseline,
                d.delta_pct,
            );
        }
    }
    out
}

/// Tolerance from `SLAMSHARE_BENCH_TOL` (percent), default 15.
pub fn tolerance_pct() -> f64 {
    std::env::var("SLAMSHARE_BENCH_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_TOL_PCT)
}

/// One bench report: (file stem, p95 metric path → value).
type Report = (String, BTreeMap<String, f64>);

/// Load every `*.json` under `dir` into (stem, p95 metrics) pairs.
fn load_reports(dir: &Path) -> Result<Vec<Report>, String> {
    let mut reports = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_string();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let json = parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        let mut metrics = BTreeMap::new();
        collect_p95(&json, "", &mut metrics);
        reports.push((stem, metrics));
    }
    Ok(reports)
}

/// Run the gate: every baseline report must have a fresh counterpart in
/// `current_dir` whose p95s are within tolerance. Returns the rendered
/// table and whether the gate passed.
pub fn run(
    baseline_dir: &Path,
    current_dir: &Path,
    tol_pct: f64,
) -> Result<(String, bool), String> {
    let baselines = load_reports(baseline_dir)?;
    if baselines.is_empty() {
        return Err(format!(
            "no baseline reports in {} — run scripts/bench_gate.sh --rebaseline first",
            baseline_dir.display()
        ));
    }
    let mut report = Vec::new();
    let mut pass = true;
    for (stem, base_metrics) in baselines {
        let current_path = current_dir.join(format!("{stem}.json"));
        let cur_metrics = if current_path.exists() {
            let text = std::fs::read_to_string(&current_path)
                .map_err(|e| format!("read {}: {e}", current_path.display()))?;
            let json =
                parse(&text).map_err(|e| format!("parse {}: {e}", current_path.display()))?;
            let mut m = BTreeMap::new();
            collect_p95(&json, "", &mut m);
            m
        } else {
            BTreeMap::new()
        };
        let deltas = compare(&base_metrics, &cur_metrics, tol_pct);
        pass &= deltas
            .iter()
            .all(|d| matches!(d.verdict, Verdict::Ok | Verdict::Improved));
        report.push((stem, deltas));
    }
    Ok((render(&report, tol_pct), pass))
}

/// Self-test: the gate must pass on baseline-vs-baseline and must fail
/// once a single metric is synthetically inflated past the tolerance.
pub fn selftest(baseline_dir: &Path, tol_pct: f64) -> Result<String, String> {
    let baselines = load_reports(baseline_dir)?;
    let (stem, metrics) = baselines
        .iter()
        .find(|(_, m)| !m.is_empty())
        .ok_or("selftest needs at least one baseline with a p95 metric")?;

    let clean = compare(metrics, metrics, tol_pct);
    if !clean
        .iter()
        .all(|d| matches!(d.verdict, Verdict::Ok | Verdict::Improved))
    {
        return Err("selftest: identical reports must pass the gate".into());
    }

    let mut inflated = metrics.clone();
    let (victim, value) = inflated
        .iter()
        .next_back()
        .map(|(k, v)| (k.clone(), *v))
        .ok_or("empty")?;
    inflated.insert(
        victim.clone(),
        value * (1.0 + tol_pct / 100.0) * 2.0 + 10.0 * ABS_SLACK_MS,
    );
    let dirty = compare(metrics, &inflated, tol_pct);
    let caught = dirty
        .iter()
        .any(|d| d.metric == victim && d.verdict == Verdict::Regressed);
    if !caught {
        return Err(format!(
            "selftest: inflating {stem}:{victim} did not trip the gate"
        ));
    }
    Ok(format!(
        "selftest ok: {stem} clean pass, inflated {victim} caught as regression"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let j =
            parse(r#"{"a": [1, 2.5, {"p95_ms": 3e1}], "b": "x\n", "c": null, "d": true}"#).unwrap();
        let Json::Obj(fields) = &j else { panic!() };
        assert_eq!(fields.len(), 4);
        let mut m = BTreeMap::new();
        collect_p95(&j, "", &mut m);
        assert_eq!(m.len(), 1);
        assert_eq!(m["a[2].p95_ms"], 30.0);
    }

    #[test]
    fn stage_rows_are_keyed_by_name_not_position() {
        let row = |stage: &str, p95: f64| format!(r#"{{"stage": "{stage}", "p95_ms": {p95}}}"#);
        let p95s = |rows: &[String]| {
            let j = parse(&format!(r#"{{"stages": [{}]}}"#, rows.join(","))).unwrap();
            let mut m = BTreeMap::new();
            collect_p95(&j, "", &mut m);
            m
        };
        let base = p95s(&[row("round.track", 50.0), row("round.retrack", 5.0)]);
        assert_eq!(base["stages[round.retrack].p95_ms"], 5.0);
        // A row inserted ahead of the others moves no pairing…
        let grown = p95s(&[
            row("round.decode", 0.3),
            row("round.track", 50.0),
            row("round.retrack", 5.0),
        ]);
        assert!(compare(&base, &grown, 15.0)
            .iter()
            .all(|d| d.verdict == Verdict::Ok));
        // …and a pinned stage that stops reporting is caught by name.
        let dropped = p95s(&[row("round.track", 50.0)]);
        assert!(compare(&base, &dropped, 15.0).iter().any(|d| {
            d.metric == "stages[round.retrack].p95_ms" && d.verdict == Verdict::MissingInCurrent
        }));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn roundtrips_vendored_writer_output() {
        // The gate reads exactly what `serde_json::to_string_pretty`
        // writes; cross-check against the real writer.
        #[derive(serde::Serialize)]
        struct Row {
            p95_latency_ms: f64,
            label: String,
        }
        #[derive(serde::Serialize)]
        struct Doc {
            rows: Vec<Row>,
        }
        let text = serde_json::to_string_pretty(&Doc {
            rows: vec![
                Row {
                    p95_latency_ms: 12.25,
                    label: "a \"quoted\" name".into(),
                },
                Row {
                    p95_latency_ms: 0.5,
                    label: "π unicode".into(),
                },
            ],
        })
        .unwrap();
        let json = parse(&text).unwrap();
        let mut m = BTreeMap::new();
        collect_p95(&json, "", &mut m);
        assert_eq!(m["rows[0].p95_latency_ms"], 12.25);
        assert_eq!(m["rows[1].p95_latency_ms"], 0.5);
    }

    fn metrics(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn gate_is_one_sided_with_abs_slack() {
        let base = metrics(&[("a.p95_ms", 100.0), ("b.p95_ms", 0.001)]);
        // 10 % up: inside the 15 % tolerance.
        let ok = metrics(&[("a.p95_ms", 110.0), ("b.p95_ms", 0.001)]);
        assert!(compare(&base, &ok, 15.0)
            .iter()
            .all(|d| d.verdict != Verdict::Regressed));
        // 20 % up: out.
        let bad = metrics(&[("a.p95_ms", 120.0), ("b.p95_ms", 0.001)]);
        assert!(compare(&base, &bad, 15.0)
            .iter()
            .any(|d| d.metric == "a.p95_ms" && d.verdict == Verdict::Regressed));
        // 50 % down: improvements always pass.
        let better = metrics(&[("a.p95_ms", 50.0), ("b.p95_ms", 0.001)]);
        assert!(compare(&base, &better, 15.0)
            .iter()
            .all(|d| matches!(d.verdict, Verdict::Ok | Verdict::Improved)));
        // Microsecond-scale jitter stays under the absolute slack even at
        // huge relative deltas.
        let jitter = metrics(&[("a.p95_ms", 100.0), ("b.p95_ms", 0.2)]);
        assert!(compare(&base, &jitter, 15.0)
            .iter()
            .all(|d| d.verdict != Verdict::Regressed));
    }

    #[test]
    fn max_bytes_is_an_absolute_ceiling() {
        let base = metrics(&[("soak.steady_arena_max_bytes", 1_000_000.0)]);
        // One byte over the committed ceiling regresses — tolerance and
        // slack do not apply to deterministic footprint counts.
        let over = metrics(&[("soak.steady_arena_max_bytes", 1_000_001.0)]);
        assert!(compare(&base, &over, 15.0)
            .iter()
            .any(|d| d.verdict == Verdict::Regressed));
        // At or under the ceiling passes.
        let at = metrics(&[("soak.steady_arena_max_bytes", 1_000_000.0)]);
        assert!(compare(&base, &at, 15.0)
            .iter()
            .all(|d| d.verdict == Verdict::Ok));
        let under = metrics(&[("soak.steady_arena_max_bytes", 900_000.0)]);
        assert!(compare(&base, &under, 15.0)
            .iter()
            .all(|d| d.verdict == Verdict::Improved));
    }

    #[test]
    fn missing_metric_is_a_regression() {
        let base = metrics(&[("a.p95_ms", 100.0)]);
        let cur = BTreeMap::new();
        let deltas = compare(&base, &cur, 15.0);
        assert_eq!(deltas[0].verdict, Verdict::MissingInCurrent);
        // ...and the rendered table says so.
        let table = render(&[("BENCH_x".into(), deltas)], 15.0);
        assert!(table.contains("MISSING"));
    }
}

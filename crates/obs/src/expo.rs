//! Prometheus text exposition: render a [`Snapshot`] as scrapeable
//! text-format metrics, and parse/validate that format back.
//!
//! The renderer emits the Prometheus text format (version 0.0.4, the
//! subset OpenMetrics shares): counters and gauges as single samples,
//! histograms as summaries — `quantile`-labeled sketch p50/p95/p99
//! samples plus exact `_sum`/`_count`, with the observed maximum as a
//! separate `<name>_max` gauge. Metric names are sanitized (`.` and `/`
//! become `_`) since registry names use dotted paths. The document ends
//! with `# EOF` so a truncated scrape is detectable.
//!
//! The parser exists so tests (unit, gateway e2e, the live admin-surface
//! scrape) can assert a scrape is well-formed without a Prometheus dependency:
//! it checks name/label syntax, value parses, TYPE declarations, and
//! that every sample belongs to a declared family.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::Snapshot;
use crate::report::json_num;

/// Sanitizes a registry metric name into a Prometheus metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`, mapping every other byte to `_`.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() && !(i == 0 && c.is_ascii_digit());
        out.push(if ok || c == '_' || c == ':' { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Formats a sample value: finite floats plainly, non-finite as
/// Prometheus' `NaN`/`+Inf`/`-Inf` spellings.
fn sample_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        (if v > 0.0 { "+Inf" } else { "-Inf" }).to_string()
    } else {
        format!("{v}")
    }
}

/// Renders a snapshot as a Prometheus text-format document ending in
/// `# EOF`.
pub fn render(snap: &Snapshot) -> String {
    let mut s = String::new();
    for (name, v) in &snap.counters {
        let n = sanitize_name(name);
        let _ = writeln!(s, "# TYPE {n} counter");
        let _ = writeln!(s, "{n} {v}");
    }
    for (name, v) in &snap.gauges {
        let n = sanitize_name(name);
        let _ = writeln!(s, "# TYPE {n} gauge");
        let _ = writeln!(s, "{n} {}", sample_value(*v));
    }
    for h in &snap.histograms {
        let n = sanitize_name(&h.name);
        let _ = writeln!(s, "# TYPE {n} summary");
        for (q, v) in ["0.5", "0.95", "0.99"].into_iter().zip(h.sketch.p50_p95_p99()) {
            let _ = writeln!(s, "{n}{{quantile=\"{q}\"}} {}", sample_value(v));
        }
        let _ = writeln!(s, "{n}_sum {}", sample_value(h.sum));
        let _ = writeln!(s, "{n}_count {}", h.count());
        let _ = writeln!(s, "# TYPE {n}_max gauge");
        let _ = writeln!(s, "{n}_max {}", sample_value(h.max));
    }
    s.push_str("# EOF\n");
    s
}

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric name (sanitized form; `_sum`/`_count` suffixes included).
    pub name: String,
    /// Label pairs, in document order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// A parsed exposition document.
#[derive(Clone, Debug, Default)]
pub struct Exposition {
    /// `# TYPE` declarations: family name → type string.
    pub families: BTreeMap<String, String>,
    /// All samples, in document order.
    pub samples: Vec<Sample>,
    /// Whether the document ended with `# EOF`.
    pub terminated: bool,
}

impl Exposition {
    /// Samples for a family, including `_sum`/`_count` suffixed ones.
    pub fn family_samples(&self, family: &str) -> Vec<&Sample> {
        self.samples
            .iter()
            .filter(|s| {
                s.name == family
                    || s.name.strip_prefix(family).is_some_and(|t| t == "_sum" || t == "_count")
            })
            .collect()
    }

    /// The value of the first sample with this exact name (any labels).
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples.iter().find(|s| s.name == name).map(|s| s.value)
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .enumerate()
            .all(|(i, c)| c == '_' || c == ':' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit()))
}

fn parse_value(tok: &str) -> Option<f64> {
    match tok {
        "NaN" => Some(f64::NAN),
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        _ => tok.parse::<f64>().ok(),
    }
}

/// Label pairs as parsed off a sample line.
type Labels = Vec<(String, String)>;

/// Parses `{k="v",...}` starting after the metric name; returns the label
/// pairs and the rest of the line (the value token).
fn parse_labels(body: &str, lineno: usize) -> Result<(Labels, &str), String> {
    let mut labels = Vec::new();
    let inner_end =
        body.find('}').ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
    let inner = &body[..inner_end];
    let rest = &body[inner_end + 1..];
    let mut cur = inner;
    while !cur.is_empty() {
        let eq = cur.find('=').ok_or_else(|| format!("line {lineno}: label without '='"))?;
        let key = cur[..eq].trim();
        if !valid_name(key) {
            return Err(format!("line {lineno}: bad label name {key:?}"));
        }
        let after = &cur[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("line {lineno}: label value not quoted"));
        }
        let close = after[1..]
            .find('"')
            .ok_or_else(|| format!("line {lineno}: unterminated label value"))?;
        let val = &after[1..1 + close];
        if val.contains('\\') {
            return Err(format!("line {lineno}: escaped label values unsupported"));
        }
        labels.push((key.to_string(), val.to_string()));
        cur = after[1 + close + 1..].trim_start_matches(',');
    }
    Ok((labels, rest))
}

/// Parses and validates a Prometheus text-format document. Errors carry
/// the offending line number; validation requires every sample to have a
/// legal name and value and (when any `# TYPE` lines exist) to belong to
/// a declared family (modulo `_sum`/`_count` suffixes on summaries).
pub fn parse(text: &str) -> Result<Exposition, String> {
    let mut doc = Exposition::default();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let c = comment.trim_start();
            if c == "EOF" {
                doc.terminated = true;
            } else if let Some(decl) = c.strip_prefix("TYPE ") {
                let mut it = decl.split_whitespace();
                let (Some(name), Some(kind)) = (it.next(), it.next()) else {
                    return Err(format!("line {lineno}: malformed TYPE declaration"));
                };
                if !valid_name(name) {
                    return Err(format!("line {lineno}: bad metric name {name:?}"));
                }
                if !matches!(kind, "counter" | "gauge" | "summary" | "histogram" | "untyped") {
                    return Err(format!("line {lineno}: unknown metric type {kind:?}"));
                }
                doc.families.insert(name.to_string(), kind.to_string());
            }
            // Other comments (# HELP, free text) are legal and ignored.
            continue;
        }
        if doc.terminated {
            return Err(format!("line {lineno}: sample after # EOF"));
        }
        let name_end = line.find(|c: char| c == '{' || c.is_whitespace()).unwrap_or(line.len());
        let name = &line[..name_end];
        if !valid_name(name) {
            return Err(format!("line {lineno}: bad metric name {name:?}"));
        }
        let rest = &line[name_end..];
        let (labels, value_part) = if let Some(body) = rest.strip_prefix('{') {
            parse_labels(body, lineno)?
        } else {
            (Vec::new(), rest)
        };
        let mut toks = value_part.split_whitespace();
        let value_tok =
            toks.next().ok_or_else(|| format!("line {lineno}: sample without value"))?;
        let value = parse_value(value_tok)
            .ok_or_else(|| format!("line {lineno}: bad sample value {value_tok:?}"))?;
        // An optional integer timestamp may follow; anything else is junk.
        if let Some(ts) = toks.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("line {lineno}: bad timestamp {ts:?}"));
            }
        }
        if toks.next().is_some() {
            return Err(format!("line {lineno}: trailing tokens"));
        }
        doc.samples.push(Sample { name: name.to_string(), labels, value });
    }
    if !doc.families.is_empty() {
        for s in &doc.samples {
            let family = s
                .name
                .strip_suffix("_sum")
                .or_else(|| s.name.strip_suffix("_count"))
                .or_else(|| s.name.strip_suffix("_bucket"))
                .filter(|base| doc.families.contains_key(*base))
                .unwrap_or(&s.name);
            if !doc.families.contains_key(family) {
                return Err(format!("sample {:?} has no TYPE declaration", s.name));
            }
        }
        // Windowed-quantile gauges (`<hist>_p50_1m` / `_p95_1m` /
        // `_p99_1m`, published by the time-series sampler) must be gauges
        // and must shadow a real summary family — a windowed percentile
        // with no lifetime histogram behind it is a naming bug.
        for (name, kind) in &doc.families {
            let Some(base) = WINDOWED_QUANTILE_SUFFIXES
                .iter()
                .find_map(|suf| name.strip_suffix(suf))
            else {
                continue;
            };
            if kind != "gauge" {
                return Err(format!("windowed quantile {name:?} declared {kind:?}, not gauge"));
            }
            match doc.families.get(base) {
                Some(k) if k == "summary" || k == "histogram" => {}
                Some(k) => {
                    return Err(format!(
                        "windowed quantile {name:?} shadows {base:?} of type {k:?}"
                    ));
                }
                None => {
                    return Err(format!(
                        "windowed quantile {name:?} has no base summary {base:?}"
                    ));
                }
            }
        }
    }
    Ok(doc)
}

/// Suffixes the time-series sampler appends for windowed quantiles, in
/// `Sketch::p50_p95_p99` order (see
/// `crate::timeseries::TimeSeriesStore::publish_windowed_gauges`, which
/// writes them, and `TimeSeriesStore::ingest`, which skips them).
pub const WINDOWED_QUANTILE_SUFFIXES: [&str; 3] = ["_p50_1m", "_p95_1m", "_p99_1m"];

/// Renders a health document as JSON: queue depth, shed counters and
/// rate, plus fleet state (replica counts, reload epoch, panic totals),
/// derived from a snapshot. Used by the gateway's `/healthz`.
///
/// `status` is `"ok"` while at least one replica is healthy (or the
/// deployment is unreplicated), `"degraded"` once every replica is down
/// and requests are being answered by the fallback scorer.
pub fn render_healthz(snap: &Snapshot) -> String {
    let counter = |name: &str| {
        snap.counters.iter().find(|(k, _)| k == name).map(|&(_, v)| v).unwrap_or(0)
    };
    let gauge = |name: &str| {
        snap.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v).unwrap_or(0.0)
    };
    let admitted = counter("gateway.requests_total");
    let shed = counter("gateway.shed_total");
    let offered = admitted + shed;
    let shed_rate = if offered == 0 { 0.0 } else { shed as f64 / offered as f64 };
    let replicas_total = gauge("gateway.replicas_total");
    let replicas_healthy = gauge("gateway.replicas_healthy");
    let status = if replicas_total > 0.0 && replicas_healthy == 0.0 { "degraded" } else { "ok" };
    format!(
        "{{\"status\":\"{status}\",\"queue_depth\":{},\"requests_total\":{admitted},\"shed_total\":{shed},\"shed_rate\":{},\
         \"replicas_total\":{},\"replicas_healthy\":{},\"replica_panics_total\":{},\"reload_epoch\":{}}}",
        json_num(gauge("gateway.queue_depth")),
        json_num(shed_rate),
        json_num(replicas_total),
        json_num(replicas_healthy),
        counter("gateway.replica_panics_total"),
        json_num(gauge("reload.epoch")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample_snapshot() -> Snapshot {
        let r = Registry::new();
        r.inc("gateway.requests_total", 10);
        r.set_gauge("gateway.queue_depth", 3.0);
        for v in 1..=100 {
            r.observe("serve.latency_ms", v as f64);
        }
        r.snapshot()
    }

    #[test]
    fn render_parse_roundtrip() {
        let snap = sample_snapshot();
        let text = render(&snap);
        let doc = parse(&text).expect("rendered output must parse");
        assert!(doc.terminated);
        assert_eq!(doc.families.get("gateway_requests_total").map(String::as_str), Some("counter"));
        assert_eq!(doc.families.get("gateway_queue_depth").map(String::as_str), Some("gauge"));
        assert_eq!(doc.families.get("serve_latency_ms").map(String::as_str), Some("summary"));
        assert_eq!(doc.value("gateway_requests_total"), Some(10.0));
        assert_eq!(doc.value("gateway_queue_depth"), Some(3.0));
        assert_eq!(doc.value("serve_latency_ms_count"), Some(100.0));
        assert_eq!(doc.value("serve_latency_ms_sum"), Some(5050.0));
        assert_eq!(doc.value("serve_latency_ms_max"), Some(100.0));
        let quantiles: Vec<&Sample> =
            doc.samples.iter().filter(|s| s.name == "serve_latency_ms").collect();
        assert_eq!(quantiles.len(), 3);
        assert_eq!(quantiles[0].labels, vec![("quantile".to_string(), "0.5".to_string())]);
        let p50 = quantiles[0].value;
        assert!((p50 - 50.0).abs() <= 50.0 * crate::metrics::SKETCH_REL_ERR, "p50={p50}");
    }

    #[test]
    fn sanitizes_dotted_and_hostile_names() {
        assert_eq!(sanitize_name("gateway.queue_depth"), "gateway_queue_depth");
        assert_eq!(sanitize_name("span.train/epoch"), "span_train_epoch");
        assert_eq!(sanitize_name("9lives"), "_lives");
        assert_eq!(sanitize_name(""), "_");
    }

    #[test]
    fn rejects_malformed_documents() {
        for (bad, why) in [
            ("9metric 1\n# EOF\n", "name starting with digit"),
            ("m{q=\"0.5\" 1\n# EOF\n", "unterminated label set"),
            ("m{q=0.5} 1\n# EOF\n", "unquoted label value"),
            ("m notanumber\n# EOF\n", "bad value"),
            ("m\n# EOF\n", "missing value"),
            ("m 1 notats\n# EOF\n", "bad timestamp"),
            ("# TYPE m nonsense\nm 1\n# EOF\n", "unknown type"),
            ("# TYPE m counter\nother 1\n# EOF\n", "undeclared family"),
            ("# EOF\nm 1\n", "sample after EOF"),
        ] {
            assert!(parse(bad).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn windowed_quantile_gauges_render_and_validate() {
        // The sampler's windowed gauges live beside the lifetime summary;
        // the rendered scrape must pass the strict validator.
        let r = Registry::new();
        for v in 1..=50 {
            r.observe("serve.latency_ms", v as f64);
        }
        let mut ts = crate::timeseries::TimeSeriesStore::new(
            crate::timeseries::TsConfig::scaled(1_000),
        );
        ts.ingest(&r.snapshot(), 0);
        for v in 1..=50 {
            r.observe("serve.latency_ms", v as f64);
        }
        ts.ingest(&r.snapshot(), 1_000);
        ts.publish_windowed_gauges(&r, 1_000);
        let text = render(&r.snapshot());
        let doc = parse(&text).expect("windowed gauges must validate");
        assert_eq!(
            doc.families.get("serve_latency_ms_p99_1m").map(String::as_str),
            Some("gauge")
        );
        assert!(doc.value("serve_latency_ms_p99_1m").is_some_and(|v| v > 0.0));
    }

    #[test]
    fn windowed_quantile_without_base_summary_is_rejected() {
        let orphan = "# TYPE lone_p99_1m gauge\nlone_p99_1m 4\n# EOF\n";
        let err = parse(orphan).expect_err("orphan windowed quantile must fail");
        assert!(err.contains("no base summary"), "{err}");
        let wrong_kind =
            "# TYPE h counter\nh 1\n# TYPE h_p99_1m gauge\nh_p99_1m 4\n# EOF\n";
        let err = parse(wrong_kind).expect_err("counter base must fail");
        assert!(err.contains("shadows"), "{err}");
        let not_gauge = "# TYPE h summary\nh{quantile=\"0.5\"} 1\nh_sum 1\nh_count 1\n\
                         # TYPE h_p99_1m counter\nh_p99_1m 4\n# EOF\n";
        let err = parse(not_gauge).expect_err("non-gauge windowed quantile must fail");
        assert!(err.contains("not gauge"), "{err}");
    }

    #[test]
    fn accepts_timestamps_help_and_non_finite_values() {
        let text = "# HELP m helpful\n# TYPE m gauge\nm NaN\n# TYPE n gauge\nn{a=\"b\",c=\"d\"} +Inf 1700000000\n# EOF\n";
        let doc = parse(text).expect("valid document");
        assert!(doc.value("m").is_some_and(f64::is_nan));
        assert_eq!(doc.value("n"), Some(f64::INFINITY));
        assert_eq!(doc.samples[1].labels.len(), 2);
    }

    #[test]
    fn healthz_reports_queue_and_shed_rate() {
        let r = Registry::new();
        r.inc("gateway.requests_total", 75);
        r.inc("gateway.shed_total", 25);
        r.set_gauge("gateway.queue_depth", 7.0);
        let h = render_healthz(&r.snapshot());
        assert!(h.contains("\"status\":\"ok\""));
        assert!(h.contains("\"queue_depth\":7"));
        assert!(h.contains("\"shed_total\":25"));
        assert!(h.contains("\"shed_rate\":0.25"));
        // Unreplicated deployments report empty fleet state, still ok.
        assert!(h.contains("\"replicas_total\":0"));
        assert!(h.contains("\"reload_epoch\":0"));
    }

    #[test]
    fn healthz_degrades_when_all_replicas_down() {
        let r = Registry::new();
        r.set_gauge("gateway.replicas_total", 3.0);
        r.set_gauge("gateway.replicas_healthy", 0.0);
        r.set_gauge("reload.epoch", 12.0);
        r.inc("gateway.replica_panics_total", 4);
        let h = render_healthz(&r.snapshot());
        assert!(h.contains("\"status\":\"degraded\""), "got: {h}");
        assert!(h.contains("\"replicas_total\":3"));
        assert!(h.contains("\"replicas_healthy\":0"));
        assert!(h.contains("\"replica_panics_total\":4"));
        assert!(h.contains("\"reload_epoch\":12"));

        // One healthy replica flips it back to ok.
        r.set_gauge("gateway.replicas_healthy", 1.0);
        let h = render_healthz(&r.snapshot());
        assert!(h.contains("\"status\":\"ok\""), "got: {h}");
    }
}

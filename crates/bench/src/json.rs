//! Envelope decoding for the benchmark subsystem.
//!
//! The recursive-descent [`Json`] reader itself lives in
//! [`fcr_telemetry::json`] (it is shared with `fcr-scenario`'s pack
//! parser); this module adds the envelope-specific decoding: the
//! `fcr-bench check` gate and the schema round-trip tests parse
//! `BENCH_<area>.json` through [`parse_envelope`].

use fcr_telemetry::json::Json;
use fcr_telemetry::{BenchEnvelope, BenchValue};

/// Parses a rendered `BENCH_<area>.json` document back into a
/// [`BenchEnvelope`]. Integral non-negative numbers come back as
/// `U64`, everything else numeric as `F64` — semantically lossless
/// for the envelope's metric comparisons ([`BenchEnvelope::metric_value`]
/// widens both to `f64`).
pub fn parse_envelope(text: &str) -> Result<BenchEnvelope, String> {
    let doc = Json::parse(text)?;
    let schema_version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing schema_version")? as u32;
    let area = doc
        .get("area")
        .and_then(Json::as_str)
        .ok_or("missing area")?;
    let seed = doc
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or("missing seed")?;
    let wall_seconds = doc
        .get("wall_seconds")
        .and_then(Json::as_f64)
        .ok_or("missing wall_seconds")?;
    let mut envelope = BenchEnvelope::new(area, seed).wall_seconds(wall_seconds);
    envelope.schema_version = schema_version;
    let map = |name: &str| -> Result<Vec<(String, BenchValue)>, String> {
        doc.get(name)
            .and_then(Json::fields)
            .ok_or(format!("missing {name} object"))
            .map(|fields| {
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), to_bench_value(v)))
                    .collect()
            })
    };
    envelope.workload = map("workload")?;
    envelope.metrics = map("metrics")?;
    Ok(envelope)
}

fn to_bench_value(v: &Json) -> BenchValue {
    match v {
        Json::Null => BenchValue::Null,
        Json::Bool(b) => BenchValue::Bool(*b),
        Json::Num(n) => v.as_u64().map_or(BenchValue::F64(*n), BenchValue::U64),
        Json::Str(s) => BenchValue::Str(s.clone()),
        // Nested containers never appear in the envelope's flat maps.
        Json::Arr(_) | Json::Obj(_) => BenchValue::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_json_shapes_the_artifacts_use() {
        let doc = Json::parse(
            r#"{"a": 1, "b": -2.5, "c": [true, false, null], "d": {"x": "y\n\"z\""}, "e": 1e3}"#,
        )
        .expect("parse");
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("b").and_then(Json::as_f64), Some(-2.5));
        assert_eq!(doc.get("e").and_then(Json::as_f64), Some(1000.0));
        assert_eq!(
            doc.get("c"),
            Some(&Json::Arr(vec![
                Json::Bool(true),
                Json::Bool(false),
                Json::Null
            ]))
        );
        assert_eq!(
            doc.get("d").and_then(|d| d.get("x")).and_then(Json::as_str),
            Some("y\n\"z\"")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} trailing",
            "\"unterminated",
            "nul",
            "{\"a\" 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn envelope_round_trips_through_render_and_parse() {
        let original = BenchEnvelope::new("solver", 99)
            .wall_seconds(0.75)
            .workload("runs", 10u64)
            .workload("scale", "smoke")
            .metric("slots_per_sec", 123.25)
            .metric("iterations_max", 870u64)
            .metric("p50_us", Option::<u64>::None)
            .metric("converged", true);
        let parsed = parse_envelope(&original.to_json()).expect("round trip");
        assert_eq!(parsed, original);
        // And the re-render is byte-identical: the shape is stable.
        assert_eq!(parsed.to_json(), original.to_json());
    }

    #[test]
    fn envelope_parse_reports_missing_fields() {
        let err = parse_envelope("{\"area\": \"x\"}").unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }
}

//! Cross-crate JSON contract: every string `ic-obs`'s hand-rolled
//! writer emits must round-trip through `ic-scenario`'s hand-rolled
//! parser, and both crates' string escapers must emit the same bytes.
//! The two codecs are written independently (the writer is
//! allocation-averse, the parser is diagnostic-happy), so this is the
//! place where their corner cases — C0 controls, DEL, astral-plane
//! unicode — are forced to agree.

use immersion_cloud::obs::json::{write_escaped, write_fields, Value};
use immersion_cloud::scenario::json::{self, Json};

fn roundtrip(s: &str) -> String {
    let mut encoded = String::new();
    write_escaped(s, &mut encoded);
    match json::parse(&encoded) {
        Ok(Json::Str(decoded)) => decoded,
        other => panic!("{encoded:?} did not parse back to a string: {other:?}"),
    }
}

#[test]
fn every_c0_control_and_del_round_trips() {
    for code in (0u32..0x20).chain([0x7f]) {
        let ch = char::from_u32(code).expect("valid control char");
        let s = format!("a{ch}b");
        assert_eq!(roundtrip(&s), s, "U+{code:04X} failed to round-trip");
    }
}

#[test]
fn bmp_and_astral_plane_unicode_round_trips() {
    for s in [
        "🦀 ferris",
        "math \u{1d4b3} italic",
        "max \u{10FFFF} scalar",
        "中文字段",
        "c1 range \u{80}\u{9f} stays raw",
        "mixed \t tab \u{7f} del 🦀 crab \"quoted\" back\\slash",
    ] {
        assert_eq!(roundtrip(s), s);
    }
}

#[test]
fn both_escapers_emit_identical_bytes() {
    let controls = (0u32..0x20).chain([0x7f]).map(|code| {
        let ch = char::from_u32(code).expect("valid control char");
        format!("a{ch}b")
    });
    let astral = [
        "🦀 ferris",
        "math \u{1d4b3} italic",
        "max \u{10FFFF} scalar",
    ];
    for s in controls.chain(astral.iter().map(|s| s.to_string())) {
        let mut obs = String::new();
        write_escaped(&s, &mut obs);
        let mut scenario = String::new();
        json::write_escaped(&mut scenario, &s);
        assert_eq!(obs, scenario, "escapers disagree on {s:?}");
    }
}

#[test]
fn field_maps_with_hostile_keys_and_values_parse_as_objects() {
    let fields = vec![
        ("plain", Value::U64(7)),
        ("ratio", Value::F64(0.125)),
        ("flag", Value::Bool(true)),
        ("nasty\nstring", Value::str("line1\nline2\u{7f}🦀")),
    ];
    let mut out = String::from("{");
    write_fields(&fields, &mut out);
    out.push('}');
    let doc = json::parse(&out).expect("field map parses");
    assert_eq!(doc.get("plain"), Some(&Json::Num(7.0)));
    assert_eq!(doc.get("ratio"), Some(&Json::Num(0.125)));
    assert_eq!(doc.get("flag"), Some(&Json::Bool(true)));
    assert_eq!(
        doc.get("nasty\nstring"),
        Some(&Json::Str("line1\nline2\u{7f}🦀".to_string()))
    );
}

#[test]
fn value_to_json_round_trips_numbers_exactly() {
    for v in [0.0, -1.5, 1e-9, 12345678.25, f64::MAX] {
        let encoded = Value::F64(v).to_json();
        match json::parse(&encoded) {
            Ok(Json::Num(parsed)) => assert_eq!(parsed, v, "{encoded}"),
            other => panic!("{encoded:?} parsed as {other:?}"),
        }
    }
}

//! Byte identity of the JSON writer.
//!
//! Every committed artifact under `artifacts/` re-renders from its parsed
//! [`Value`] to the same bytes, through the path that writes a `Value` in
//! place; and strings that need escaping render exactly as a char-by-char
//! reference writer renders them, compact and pretty.

use std::borrow::Cow;
use std::path::Path;

use serde::Serialize;
use serde_json::Value;

/// The char-by-char string writer the fast one must match.
fn reference_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[test]
fn committed_artifacts_rerender_byte_for_byte() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("artifacts directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 30, "only {} artifacts found", paths.len());
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("artifact is UTF-8");
        // The CLI's goldens end with the newline `println!` adds.
        let body = text.strip_suffix('\n').unwrap_or(&text);
        let value: Value =
            serde_json::from_str(body).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            matches!(value.as_value(), Cow::Borrowed(_)),
            "a Value renders in place"
        );
        let rendered = serde_json::to_string_pretty(&value).expect("renders");
        assert!(
            rendered == body,
            "{}: the re-rendered bytes differ",
            path.display()
        );
    }
}

#[test]
fn escaped_strings_match_the_char_by_char_writer() {
    let mut cases: Vec<String> = vec![
        String::new(),
        "plain ascii".into(),
        "\"quoted\"".into(),
        "back\\slash\\".into(),
        "ünïcödé — 日本語 🦀".into(),
        "mixed \"ü\"\\\n\t🦀\u{1f}end".into(),
        "\u{7f}\u{80}\u{2028}".into(),
    ];
    for b in 0u8..0x20 {
        let c = char::from(b);
        cases.push(c.to_string());
        cases.push(format!("a{c}ü{c}"));
    }
    for s in &cases {
        let expected = reference_string(s);
        assert_eq!(
            serde_json::to_string(&Value::Str(s.clone())).unwrap(),
            expected,
            "compact {s:?}"
        );
        assert_eq!(serde_json::to_string(s).unwrap(), expected, "String {s:?}");
        let nested = Value::Object(vec![(s.clone(), Value::Array(vec![Value::Str(s.clone())]))]);
        assert_eq!(
            serde_json::to_string(&nested).unwrap(),
            format!("{{{expected}:[{expected}]}}"),
            "compact nested {s:?}"
        );
        assert_eq!(
            serde_json::to_string_pretty(&nested).unwrap(),
            format!("{{\n  {expected}: [\n    {expected}\n  ]\n}}"),
            "pretty nested {s:?}"
        );
        assert_eq!(
            serde_json::from_str(&expected).unwrap(),
            Value::Str(s.clone()),
            "round trip {s:?}"
        );
    }
}

#[test]
fn deep_indentation_is_written_whole() {
    // Deeper than one run of the writer's space buffer.
    let mut value = Value::UInt(7);
    for _ in 0..40 {
        value = Value::Array(vec![value]);
    }
    let text = serde_json::to_string_pretty(&value).unwrap();
    let line = text.lines().nth(40).unwrap();
    assert_eq!(line, format!("{}7", " ".repeat(80)));
    assert_eq!(serde_json::from_str(&text).unwrap(), value);
}

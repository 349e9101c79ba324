//! The parser's nesting bound: input nested deeper than 128 arrays or
//! objects is an `Err`, never a stack overflow, and input at the bound
//! still parses.

use serde_json::Value;

fn arrays(depth: usize) -> String {
    format!("{}{}", "[".repeat(depth), "]".repeat(depth))
}

fn objects(depth: usize) -> String {
    format!("{}null{}", r#"{"a":"#.repeat(depth), "}".repeat(depth))
}

/// How many arrays or objects enclose the innermost value.
fn depth_of(mut value: &Value) -> usize {
    let mut depth = 0;
    loop {
        value = match value {
            Value::Array(items) if items.is_empty() => return depth + 1,
            Value::Array(items) => &items[0],
            Value::Object(fields) => &fields[0].1,
            _ => return depth,
        };
        depth += 1;
    }
}

#[test]
fn a_hundred_thousand_open_brackets_are_an_error() {
    assert!(serde_json::from_str(&"[".repeat(100_000)).is_err());
    assert!(serde_json::from_str(&arrays(100_000)).is_err());
}

#[test]
fn a_hundred_thousand_open_objects_are_an_error() {
    assert!(serde_json::from_str(&r#"{"a":"#.repeat(100_000)).is_err());
    assert!(serde_json::from_str(&objects(100_000)).is_err());
    assert!(serde_json::from_slice(objects(100_000).as_bytes()).is_err());
}

#[test]
fn nesting_parses_up_to_128_levels_and_no_further() {
    for (text, deeper) in [(arrays(128), arrays(129)), (objects(128), objects(129))] {
        let value = serde_json::from_str(&text).expect("128 levels parse");
        assert_eq!(depth_of(&value), 128);
        let err = serde_json::from_str(&deeper).expect_err("129 levels are refused");
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
    }
}

#[test]
fn the_bound_counts_open_levels_not_siblings() {
    // 128 levels, then a sibling at every level: the depth returns to
    // the bound, never past it.
    let text = format!("{}{}", "[".repeat(128), "],[]".repeat(127) + "]");
    assert_eq!(text.matches('[').count(), 255);
    assert!(serde_json::from_str(&text).is_ok());
    // Mixed arrays and objects count as one depth.
    let mixed = format!("{}[]{}", r#"[{"a":"#.repeat(64), "}]".repeat(64));
    assert!(serde_json::from_str(&mixed).is_err());
    let mixed = format!("{}1{}", r#"[{"a":"#.repeat(64), "}]".repeat(64));
    assert!(serde_json::from_str(&mixed).is_ok());
}

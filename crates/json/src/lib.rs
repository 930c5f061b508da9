//! `aasd-json` — minimal JSON value writer (std-only `serde_json` stand-in).
//!
//! The build container is offline, so anything that needs to emit JSON —
//! `aasd-bench`'s `table1` output and the serving metrics endpoint in
//! `aasd-serve` — shares this hand-rolled writer instead of duplicating one
//! per crate. Only what those call sites need: objects, arrays, strings,
//! finite numbers, and integers.

/// Escape a string for a JSON literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an f64 as a JSON number (finite; falls back to 0 otherwise,
/// since JSON has no NaN/Inf).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "0".to_string()
    }
}

/// `key: value` pair with a pre-rendered value.
pub fn field(key: &str, rendered_value: &str) -> String {
    format!("\"{}\": {}", escape(key), rendered_value)
}

pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

pub fn object(fields: &[String]) -> String {
    format!("{{{}}}", fields.join(", "))
}

pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_and_shapes() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(f64::INFINITY), "0");
        let obj = object(&[field("name", &string("x")), field("v", &num(1.5))]);
        assert_eq!(obj, "{\"name\": \"x\", \"v\": 1.500000}");
        assert_eq!(array(&["1".into(), "2".into()]), "[1, 2]");
        assert_eq!(object(&[]), "{}");
    }
}

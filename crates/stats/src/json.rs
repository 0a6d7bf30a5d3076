//! Minimal JSON serialization for the engine's metrics exporter.
//!
//! The workspace takes no serialization dependency, so `ba-engine`'s
//! JSON-lines metrics exporter renders its lines with this module: a
//! tiny order-preserving [`JsonObject`] builder plus the
//! [`escape_json`]/[`f64_token`] primitives it is built from.

use std::fmt::Write as _;

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included). Handles the two mandatory escapes (`"` and `\`), the named
/// control escapes, and `\u00XX` for the remaining control bytes.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` as a JSON number token. JSON has no NaN/Infinity, so
/// non-finite values render as `null` — a visibly absent measurement
/// beats a document no parser accepts.
pub fn f64_token(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// An order-preserving JSON object builder with one formatting
/// convention: `"key": value` pairs joined by `", "`.
///
/// The builder is consuming (`field_*` methods take and return `self`)
/// so objects compose as chains, and [`JsonObject::field_raw`] nests
/// pre-rendered objects/arrays without re-escaping.
///
/// # Example
///
/// ```
/// use ba_stats::json::JsonObject;
///
/// let line = JsonObject::new()
///     .field_u64("ops", 1024)
///     .field_f64("mean", 2.5)
///     .field_raw("occupancy", "null")
///     .finish();
/// assert_eq!(line, r#"{"ops": 1024, "mean": 2.5, "occupancy": null}"#);
/// ```
#[derive(Debug, Clone)]
pub struct JsonObject {
    buf: String,
    empty: bool,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            empty: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.empty {
            self.buf.push_str(", ");
        }
        self.empty = false;
        let _ = write!(self.buf, "\"{}\": ", escape_json(key));
    }

    /// Appends an unsigned integer field.
    pub fn field_u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends a float field (non-finite values render as `null`, see
    /// [`f64_token`]).
    pub fn field_f64(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        self.buf.push_str(&f64_token(value));
        self
    }

    /// Appends a pre-rendered JSON value verbatim — the nesting hook for
    /// sub-objects, arrays, and `null`. The caller vouches that `raw` is
    /// itself valid JSON.
    pub fn field_raw(mut self, key: &str, raw: &str) -> Self {
        self.key(key);
        self.buf.push_str(raw);
        self
    }

    /// Closes the object and returns the rendered text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape_json(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape_json(r"a\b"), r"a\\b");
        assert_eq!(escape_json("a\nb\tc\r"), "a\\nb\\tc\\r");
        assert_eq!(escape_json("\u{01}"), "\\u0001");
        assert_eq!(escape_json("plain ünïcode"), "plain ünïcode");
    }

    #[test]
    fn numbers_render_as_json_tokens() {
        assert_eq!(f64_token(1.5), "1.5");
        assert_eq!(f64_token(3.0), "3");
        assert_eq!(f64_token(f64::NAN), "null");
        assert_eq!(f64_token(f64::INFINITY), "null");
    }

    #[test]
    fn object_builder_preserves_order_and_nests() {
        let inner = JsonObject::new().field_u64("n", 3).finish();
        let outer = JsonObject::new()
            .field_u64("window", 7)
            .field_f64("rate", 2.5)
            .field_raw("stats", &inner)
            .field_raw("depth", "null")
            .finish();
        assert_eq!(
            outer,
            r#"{"window": 7, "rate": 2.5, "stats": {"n": 3}, "depth": null}"#
        );
    }

    #[test]
    fn empty_object_renders() {
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(JsonObject::default().finish(), "{}");
    }

    #[test]
    fn keys_are_escaped_too() {
        let text = JsonObject::new().field_u64("a\"b", 1).finish();
        assert_eq!(text, "{\"a\\\"b\": 1}");
    }
}

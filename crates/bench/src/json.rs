//! Minimal JSON value + pretty printer for machine-readable result dumps.
//!
//! The environment is offline (no serde), and the bench harness only ever
//! *writes* JSON — a small value tree with a deterministic pretty printer
//! covers everything `write_json` needs.

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

/// Convenience constructor for a string value.
pub fn string(s: &str) -> Json {
    Json::String(s.to_string())
}

/// Convenience constructor for a number value.
pub fn number(x: f64) -> Json {
    Json::Number(x)
}

/// Convenience constructor for an array value.
pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
    Json::Array(items.into_iter().collect())
}

/// Convenience constructor for an object value (insertion-ordered).
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn format_number(x: f64) -> String {
    if !x.is_finite() {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        return "null".to_string();
    }
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

impl Json {
    fn write(&self, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        let pad_in = "  ".repeat(indent + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(x) => out.push_str(&format_number(*x)),
            Json::String(s) => escape(s, out),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad_in);
                    item.write(indent + 1, out);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&pad_in);
                    escape(k, out);
                    out.push_str(": ");
                    v.write(indent + 1, out);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Renders with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(0, &mut out);
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structure() {
        let v = array([object([
            ("name", string("fig12")),
            ("wall_ms", number(123.5)),
            ("threads", number(8.0)),
        ])]);
        let text = v.pretty();
        assert!(text.contains("\"name\": \"fig12\""));
        assert!(text.contains("\"wall_ms\": 123.5"));
        assert!(text.contains("\"threads\": 8"));
        assert!(text.ends_with("]\n"));
    }

    #[test]
    fn escapes_strings() {
        let mut out = String::new();
        escape("a\"b\\c\nd", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(format_number(8000.0), "8000");
        assert_eq!(format_number(0.25), "0.25");
        assert_eq!(format_number(f64::NAN), "null");
    }
}

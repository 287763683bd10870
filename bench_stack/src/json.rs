//! JSON output. The tree type and the parser are the repo's own
//! (`distgnn_telemetry::json`); this module adds the serializer and a
//! few builders, so everything the benchmark writes can be re-parsed
//! by the code that `compare` reads it with.

pub use distgnn_telemetry::json::{parse, Value};

/// Object builder that keeps insertion order.
#[derive(Default)]
pub struct Obj(Vec<(String, Value)>);

impl Obj {
    pub fn new() -> Self {
        Obj(Vec::new())
    }

    pub fn put(mut self, key: &str, value: impl ToJson) -> Self {
        self.0.push((key.to_string(), value.to_json()));
        self
    }

    pub fn build(self) -> Value {
        Value::Obj(self.0)
    }
}

/// What [`Obj::put`] accepts (`Value` is a foreign type, so `From`
/// impls for it cannot live here).
pub trait ToJson {
    fn to_json(self) -> Value;
}

impl ToJson for Value {
    fn to_json(self) -> Value {
        self
    }
}
impl ToJson for f64 {
    fn to_json(self) -> Value {
        Value::Num(self)
    }
}
impl ToJson for u64 {
    fn to_json(self) -> Value {
        Value::Num(self as f64)
    }
}
impl ToJson for usize {
    fn to_json(self) -> Value {
        Value::Num(self as f64)
    }
}
impl ToJson for bool {
    fn to_json(self) -> Value {
        Value::Bool(self)
    }
}
impl ToJson for &str {
    fn to_json(self) -> Value {
        Value::Str(self.to_string())
    }
}
impl ToJson for String {
    fn to_json(self) -> Value {
        Value::Str(self)
    }
}
impl ToJson for Obj {
    fn to_json(self) -> Value {
        self.build()
    }
}
impl ToJson for Vec<Value> {
    fn to_json(self) -> Value {
        Value::Arr(self)
    }
}
impl ToJson for &[f64] {
    fn to_json(self) -> Value {
        Value::Arr(self.iter().map(|&x| Value::Num(x)).collect())
    }
}

fn write_str(s: &str, out: &mut String) {
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

/// Numbers keep every digit (`{}` on f64 is the shortest round-trip
/// form); JSON has no NaN/inf, so those become `null`.
fn write_num(n: f64, out: &mut String) {
    if n.is_finite() {
        out.push_str(&format!("{n}"));
    } else {
        out.push_str("null");
    }
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_num(*n, out),
        Value::Str(s) => write_str(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Obj(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

/// Compact, single-line JSON (no newline can occur inside: strings
/// escape theirs), so a document can be the last line of stdout.
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write_value(v, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_reparses_to_the_same_tree() {
        let doc = Obj::new()
            .put("name", "a \"quoted\"\\ line\nbreak\ttab \u{1} µs")
            .put("long", 0.123_456_789_012_345_6)
            .put("tiny", 1.2e-9)
            .put("count", 18446744073709u64)
            .put("ok", true)
            .put("nothing", Value::Null)
            .put("list", [1.5, -2.0, 0.0].as_slice())
            .put(
                "nested",
                Obj::new().put("k", "v").put("empty", Vec::<Value>::new()),
            )
            .build();
        let text = to_string(&doc);
        assert!(!text.contains('\n'), "must stay on one line: {text}");
        assert_eq!(parse(&text).expect("re-parse"), doc);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let text = to_string(
            &Obj::new()
                .put("x", f64::NAN)
                .put("y", f64::INFINITY)
                .build(),
        );
        assert_eq!(text, "{\"x\":null,\"y\":null}");
        parse(&text).expect("still valid JSON");
    }

    #[test]
    fn numbers_keep_all_digits() {
        let x = 81.23456789012345_f64;
        let text = to_string(&Value::Num(x));
        assert_eq!(text.parse::<f64>().unwrap().to_bits(), x.to_bits());
    }
}

//! The JSON writer behind every observability document (`zoomctl stats
//! --json`, `slowlog --json`, `health --json`; keys in DESIGN.md §11).
//! The workspace carries no JSON serializer crate by design: a type
//! renders through [`ToJson`], an object through [`JsonObject`], and a
//! plain struct through the `json_object!` field list.

use std::fmt::Write as _;

/// A value that renders as JSON text.
pub trait ToJson {
    /// Appends the value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

/// `v` as a standalone JSON document.
pub fn to_string(v: &(impl ToJson + ?Sized)) -> String {
    let mut out = String::new();
    v.write_json(&mut out);
    out
}

/// Writes one JSON object, `{"key":value,...}`, keys in call order.
pub struct JsonObject<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> JsonObject<'a> {
    /// Opens the object at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        JsonObject { out, empty: true }
    }

    /// Appends `"key":value`. Keys are field names and are not escaped.
    pub fn field(mut self, key: &str, value: impl ToJson) -> Self {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        let _ = write!(self.out, "\"{key}\":");
        value.write_json(self.out);
        self
    }

    /// Closes the object.
    pub fn finish(self) {
        self.out.push('}');
    }
}

/// Already-rendered JSON text, written verbatim.
pub struct Raw<'a>(pub &'a str);

impl ToJson for Raw<'_> {
    fn write_json(&self, out: &mut String) {
        out.push_str(self.0)
    }
}

/// Implements [`ToJson`] for structs rendered as one object of the listed
/// fields, keys in the listed order.
macro_rules! json_object {
    ($($Type:ty { $($field:ident),* $(,)? })*) => {$(
        impl $crate::json::ToJson for $Type {
            fn write_json(&self, out: &mut String) {
                $crate::json::JsonObject::new(out)
                    $(.field(stringify!($field), &self.$field))*
                    .finish();
            }
        }
    )*};
}
pub(crate) use json_object;

/// Implements [`ToJson`] for types whose `Display` form is a JSON value.
macro_rules! json_display {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
json_display!(bool, u32, u64, usize);

/// A string, quoted and escaped.
impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
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
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out)
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out)
    }
}

/// `null` when absent.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out)
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out)
    }
}

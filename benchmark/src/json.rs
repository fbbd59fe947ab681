//! The few JSON helpers the benchmark needs, over the workspace's `serde`
//! value model: building objects in insertion order, rendering, parsing
//! and typed field access with errors that name the missing key.

pub use serde::Value;

/// An object from `(key, value)` pairs, keys in the order given.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A number. Integral counts should use [`int`] so they print without a
/// fraction.
pub fn num(v: f64) -> Value {
    Value::Float(v)
}

/// An unsigned integer.
pub fn int(v: u64) -> Value {
    serde::Serialize::to_value(&v)
}

/// A string.
pub fn text(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

/// Compact one-line JSON.
pub fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("value model always renders")
}

/// Indented JSON.
pub fn render_pretty(v: &Value) -> String {
    serde_json::to_string_pretty(v).expect("value model always renders")
}

/// Parses JSON text.
pub fn parse(s: &str) -> Result<Value, String> {
    serde_json::from_str::<Value>(s).map_err(|e| e.to_string())
}

/// Reads and parses a JSON file.
pub fn read_file(path: &std::path::Path) -> Result<Value, String> {
    let s = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&s).map_err(|e| format!("{}: {e}", path.display()))
}

/// `v[key]`, or an error naming the key.
pub fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing key `{key}`"))
}

/// `v[key]` as a number.
pub fn f64_of(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("key `{key}` is not a number"))
}

/// `v[key]` as a string.
pub fn str_of<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| format!("key `{key}` is not a string"))
}

/// `v[key]` as an array.
pub fn seq_of<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    field(v, key)?
        .as_seq()
        .ok_or_else(|| format!("key `{key}` is not an array"))
}

/// `v[key]` as an object's entries.
pub fn map_of<'a>(v: &'a Value, key: &str) -> Result<&'a [(String, Value)], String> {
    field(v, key)?
        .as_map()
        .ok_or_else(|| format!("key `{key}` is not an object"))
}

//! Offline stand-in for `serde_json`.
//!
//! A thin front end over the [`serde`] shim's one JSON writer
//! ([`serde::Writer`]) and one JSON reader ([`serde::Reader`]): values
//! write and read themselves straight as text, with no tree in between.
//! Output formatting matches real serde_json: compact form has no
//! whitespace, pretty form indents by two spaces, floats print via
//! Rust's shortest-roundtrip `{:?}` (so `1.0` stays `1.0`), and strings
//! escape `"` `\\` and control characters. Reading rejects trailing
//! characters and nesting deeper than [`serde::MAX_DEPTH`] levels.

pub use serde::{Error, Value};

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut w = serde::Writer::new(false);
    value.serialize(&mut w);
    Ok(w.into_string())
}

/// Serializes `value` to a pretty-printed JSON string (2-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut w = serde::Writer::new(true);
    value.serialize(&mut w);
    Ok(w.into_string())
}

/// Deserializes a value of `T` from a JSON string.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let mut r = serde::Reader::new(s);
    let value = T::deserialize(&mut r)?;
    r.end()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering_matches_serde_json_shape() {
        let v = Value::Object(vec![
            ("a".to_string(), Value::UInt(1)),
            (
                "b".to_string(),
                Value::Array(vec![Value::Float(1.0), Value::Null]),
            ),
            ("c".to_string(), Value::Str("x\"y".to_string())),
        ]);
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"a":1,"b":[1.0,null],"c":"x\"y"}"#
        );
    }

    #[test]
    fn pretty_rendering_indents_two_spaces() {
        let v = Value::Object(vec![
            (
                "xs".to_string(),
                Value::Array(vec![Value::UInt(1), Value::UInt(2)]),
            ),
            ("e".to_string(), Value::Array(Vec::new())),
            ("o".to_string(), Value::Object(Vec::new())),
        ]);
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"xs\": [\n    1,\n    2\n  ],\n  \"e\": [],\n  \"o\": {}\n}"
        );
    }

    #[test]
    fn parse_roundtrips() {
        let src = r#"{"a":-3,"b":[true,false,null,2.5],"s":"A\n"}"#;
        let v: Value = from_str(src).unwrap();
        assert_eq!(
            v,
            Value::Object(vec![
                ("a".to_string(), Value::Int(-3)),
                (
                    "b".to_string(),
                    Value::Array(vec![
                        Value::Bool(true),
                        Value::Bool(false),
                        Value::Null,
                        Value::Float(2.5),
                    ])
                ),
                ("s".to_string(), Value::Str("A\n".to_string())),
            ])
        );
        let out = to_string(&v).unwrap();
        assert_eq!(out, src);
        let v2: Value = from_str(&out).unwrap();
        assert_eq!(v, v2);
    }

    #[test]
    fn typed_roundtrip_through_traits() {
        let data: Vec<(u64, String)> = vec![(1, "one".into()), (2, "two".into())];
        let json = to_string(&data).unwrap();
        let back: Vec<(u64, String)> = from_str(&json).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<u64>("true").is_err());
    }
}

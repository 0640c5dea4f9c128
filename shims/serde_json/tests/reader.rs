//! The decode rules derived types rely on, pinned through the public
//! `from_str`: which of two duplicate keys wins, what an unknown or an
//! absent key does, how numbers classify into integer and float types,
//! how map keys parse back, and which texts are rejected outright.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};
use serde_json::from_str;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair {
    a: u64,
    b: Option<String>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Key(u32);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Dot,
    Line(u64),
    Box { w: u32, h: u32 },
}

#[test]
fn of_two_duplicate_keys_the_first_wins() {
    let p: Pair = from_str(r#"{"a":1,"b":"x","a":2,"b":null}"#).unwrap();
    assert_eq!(
        p,
        Pair {
            a: 1,
            b: Some("x".to_string())
        }
    );
    // The loser is not read as its field's type.
    let p: Pair = from_str(r#"{"a":1,"a":"not a number"}"#).unwrap();
    assert_eq!(p.a, 1);
    let s: Shape = from_str(r#"{"Box":{"w":1,"h":2,"w":3}}"#).unwrap();
    assert_eq!(s, Shape::Box { w: 1, h: 2 });
}

#[test]
fn unknown_keys_are_skipped_but_syntax_checked() {
    let p: Pair = from_str(r#"{"z":[1,{"q":null,"r":[true,-2.5e3]}],"a":4,"y":"s"}"#).unwrap();
    assert_eq!(p, Pair { a: 4, b: None });
    assert!(from_str::<Pair>(r#"{"a":4,"z":[1,}"#).is_err());
    assert!(from_str::<Pair>(r#"{"a":4,"z":nul}"#).is_err());
    assert!(from_str::<Pair>(r#"{"a":4,"z":"open}"#).is_err());
}

#[test]
fn an_absent_option_reads_as_none_and_an_absent_field_is_an_error() {
    let p: Pair = from_str(r#"{"a":9}"#).unwrap();
    assert_eq!(p, Pair { a: 9, b: None });
    let err = from_str::<Pair>(r#"{"b":"x"}"#).unwrap_err();
    assert!(err.to_string().contains("missing field `a`"), "{err}");
    let err = from_str::<Shape>(r#"{"Box":{"w":1}}"#).unwrap_err();
    assert!(err.to_string().contains("missing field `h`"), "{err}");
}

#[test]
fn numbers_classify_into_integer_and_float_types() {
    // `-0` is an integer zero, for every numeric type.
    assert_eq!(from_str::<u64>("-0").unwrap(), 0);
    assert_eq!(from_str::<i32>("-0").unwrap(), 0);
    let zero = from_str::<f64>("-0").unwrap();
    assert_eq!(zero, 0.0);
    assert!(zero.is_sign_positive());
    // Out of range, or a float into an integer: rejected.
    assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
    assert!(from_str::<u64>("18446744073709551616").is_err());
    assert!(from_str::<u32>("1.0").is_err());
    assert!(from_str::<u32>("1e2").is_err());
    assert!(from_str::<u8>("256").is_err());
    assert!(from_str::<u64>("-1").is_err());
    assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
    assert!(from_str::<i64>("9223372036854775808").is_err());
    // Integers read into floats; floats keep their value.
    assert_eq!(from_str::<f64>("7").unwrap(), 7.0);
    assert_eq!(from_str::<f64>("-7").unwrap(), -7.0);
    assert_eq!(from_str::<f64>("1e-7").unwrap(), 1e-7);
    assert_eq!(from_str::<f32>("0.1").unwrap(), 0.1f64 as f32);
    assert!(from_str::<f64>("null").is_err());
    assert!(from_str::<f64>("1-2").is_err());
    // A literal that overflows its float type is invalid, not ±inf (the
    // writer renders a non-finite float as `null`, which reads back as
    // no float at all); underflow to zero is accepted.
    let huge = "9".repeat(400);
    for text in ["1e99925", "-1e309", huge.as_str()] {
        let err = from_str::<f64>(text).unwrap_err().to_string();
        assert!(err.contains("invalid number"), "{text}: {err}");
        assert!(from_str::<f32>(text).is_err(), "{text}");
    }
    assert!(from_str::<Vec<f64>>("[1.5, 1e400]").is_err());
    let err = from_str::<f32>(" 1e39").unwrap_err().to_string();
    assert!(err.contains("invalid number `1e39` at offset 1"), "{err}");
    assert!(from_str::<f32>("-3.5e38").is_err());
    assert_eq!(from_str::<f32>("3.4e38").unwrap(), 3.4e38f32);
    assert_eq!(from_str::<f64>("1e308").unwrap(), 1e308);
    assert_eq!(from_str::<f64>("1e-400").unwrap(), 0.0);
    assert_eq!(from_str::<f32>("1e-50").unwrap(), 0.0);
}

#[test]
fn integer_map_keys_parse_back() {
    let m: HashMap<u64, String> = from_str(r#"{"10":"b","2":"a"}"#).unwrap();
    assert_eq!(m[&10], "b");
    assert_eq!(m[&2], "a");
    let m: BTreeMap<i32, bool> = from_str(r#"{"-4":true,"11":false}"#).unwrap();
    assert_eq!(m.into_iter().collect::<Vec<_>>(), [(-4, true), (11, false)]);
    let m: HashMap<Key, u8> = from_str(r#"{"7":1}"#).unwrap();
    assert_eq!(m[&Key(7)], 1);
    let m: BTreeMap<String, u8> = from_str(r#"{"7":1,"x":2}"#).unwrap();
    assert_eq!(m["7"], 1);
    assert!(from_str::<HashMap<u8, u8>>(r#"{"x":1}"#).is_err());
    assert!(from_str::<HashMap<u8, u8>>(r#"{"300":1}"#).is_err());
}

impl std::hash::Hash for Key {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state)
    }
}

impl Eq for Key {}

#[test]
fn enums_read_externally_tagged() {
    assert_eq!(from_str::<Shape>(r#""Dot""#).unwrap(), Shape::Dot);
    assert_eq!(from_str::<Shape>(r#"{"Line":3}"#).unwrap(), Shape::Line(3));
    // An object with two keys names no one variant.
    assert!(from_str::<Shape>(r#"{"Line":3,"Dot":null}"#).is_err());
    assert!(from_str::<Shape>(r#"{"Line":3,"Line":4}"#).is_err());
    assert!(from_str::<Shape>(r#"{}"#).is_err());
    // A unit variant is a string, a data variant an object.
    assert!(from_str::<Shape>(r#"{"Dot":null}"#).is_err());
    assert!(from_str::<Shape>(r#""Line""#).is_err());
    assert!(from_str::<Shape>(r#""Circle""#).is_err());
}

#[test]
fn trailing_characters_and_unpaired_surrogates_are_rejected() {
    assert!(from_str::<u64>("1 2").is_err());
    assert!(from_str::<Pair>(r#"{"a":1} x"#).is_err());
    assert!(from_str::<Vec<u8>>("[1]]").is_err());
    assert_eq!(from_str::<u64>(" 1 \n").unwrap(), 1);
    assert_eq!(from_str::<String>(r#""😀""#).unwrap(), "😀");
    assert!(from_str::<String>(r#""\ud83d""#).is_err());
    assert!(from_str::<String>(r#""\ud83d x""#).is_err());
    assert!(from_str::<String>(r#""\ude00""#).is_err());
}

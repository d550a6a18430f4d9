//! The laws that make a string [`Value`] a drop-in for its text, whatever
//! handle holds it: hashing feeds the type tag and then exactly what
//! `str` feeds, order is `str`'s, the JSON is `{"Str":"…"}` and a serde
//! round trip gives an equal value. Strings are arbitrary, including the
//! empty string and non-ASCII text.

use cosmos_types::Value;
use proptest::prelude::*;
use rustc_hash::FxHasher;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn hash_with<H: Hasher + Default, T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = H::default();
    value.hash(&mut h);
    h.finish()
}

/// A pair of strings that are equal about half the time: the second is
/// the first, or a short string over a two-letter alphabet that often
/// coincides with it.
fn text_pair() -> impl Strategy<Value = (String, String)> {
    prop_oneof![
        ".{0,8}".prop_map(|a| (a.clone(), a)),
        (".{0,8}", ".{0,8}"),
        ("[aé]{0,2}", "[aé]{0,2}"),
    ]
}

proptest! {
    #[test]
    fn hash_is_the_tag_then_the_texts(a in ".{0,12}") {
        let v = Value::str(a.as_str());
        prop_assert_eq!(
            hash_with::<FxHasher, _>(&v),
            hash_with::<FxHasher, _>(&(3u8, a.as_str()))
        );
        prop_assert_eq!(
            hash_with::<DefaultHasher, _>(&v),
            hash_with::<DefaultHasher, _>(&(3u8, a.as_str()))
        );
    }

    #[test]
    fn order_and_equality_are_the_texts(pair in text_pair()) {
        let (a, b) = pair;
        let (x, y) = (Value::str(a.as_str()), Value::from(b.clone()));
        let texts = a.as_str().cmp(b.as_str());
        prop_assert_eq!(x.cmp(&y), texts);
        prop_assert_eq!(x.partial_cmp(&y), Some(texts));
        prop_assert_eq!(x.partial_cmp_coerce(&y), Some(texts));
        prop_assert_eq!(x == y, a == b);
        prop_assert_eq!(x.eq_coerce(&y), a == b);
    }

    #[test]
    fn json_is_the_tagged_text_and_round_trips(a in ".{0,12}") {
        let v = Value::str(a.as_str());
        let json = serde_json::to_string(&v).unwrap();
        prop_assert_eq!(&json, &format!("{{\"Str\":{}}}", serde_json::to_string(&a).unwrap()));
        let back: Value = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back.as_str(), Some(a.as_str()));
        prop_assert_eq!(back, v);
    }
}

#[test]
fn the_empty_string_is_a_string() {
    let (a, b) = (Value::str(""), Value::from(String::new()));
    assert_eq!(a, b);
    assert_eq!(a.as_str(), Some(""));
    assert_eq!(a.size_bytes(), 1);
    assert_eq!(serde_json::to_string(&a).unwrap(), r#"{"Str":""}"#);
    assert_ne!(a, Value::str(" "));
    assert_eq!(
        a.cmp(&Value::Int(0)),
        Ordering::Greater,
        "strings rank last"
    );
}

#[test]
fn non_ascii_text_keeps_its_bytes() {
    let v = Value::str("naïve €");
    assert_eq!(v.size_bytes(), 1 + "naïve €".len());
    assert_eq!(v.to_string(), "'naïve €'");
    assert_eq!(serde_json::to_string(&v).unwrap(), r#"{"Str":"naïve €"}"#);
}

#[test]
fn clones_share_the_text() {
    let v = Value::str("shared");
    let (Value::Str(a), Value::Str(b)) = (&v, &v.clone()) else {
        unreachable!("a string value");
    };
    assert!(std::sync::Arc::ptr_eq(a, b), "a clone is a refcount bump");
}

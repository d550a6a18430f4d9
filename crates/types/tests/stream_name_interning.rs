//! The laws that make an interned [`StreamName`] a drop-in for its text:
//! equality is text equality, order and hash are the text's, and a serde
//! round trip lands on the same handle. Strings are arbitrary, including
//! the empty string and non-ASCII text.

use cosmos_types::{StreamName, Timestamp, Tuple, Value};
use proptest::prelude::*;
use rustc_hash::FxHasher;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn hash_with<H: Hasher + Default, T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = H::default();
    value.hash(&mut h);
    h.finish()
}

/// A pair of names that are equal about half the time: the second is
/// the first, or a short string over a two-letter alphabet that often
/// coincides with it.
fn name_pair() -> impl Strategy<Value = (String, String)> {
    prop_oneof![
        ".{0,8}".prop_map(|a| (a.clone(), a)),
        (".{0,8}", ".{0,8}"),
        ("[aé]{0,2}", "[aé]{0,2}"),
    ]
}

proptest! {
    #[test]
    fn handles_are_equal_exactly_when_texts_are(pair in name_pair()) {
        let (a, b) = pair;
        let (x, y) = (StreamName::new(&a), StreamName::new(&b));
        prop_assert_eq!(x == y, a == b);
        prop_assert_eq!(std::ptr::eq(x.as_str(), y.as_str()), a == b);
        prop_assert_eq!(x.as_str(), a.as_str());
    }

    #[test]
    fn order_is_the_texts(pair in name_pair()) {
        let (a, b) = pair;
        let (x, y) = (StreamName::new(&a), StreamName::new(&b));
        prop_assert_eq!(x.cmp(&y), a.as_str().cmp(b.as_str()));
        prop_assert_eq!(x.partial_cmp(&y), Some(a.as_str().cmp(b.as_str())));
    }

    #[test]
    fn hash_is_the_texts(a in ".{0,12}") {
        let x = StreamName::new(&a);
        prop_assert_eq!(hash_with::<FxHasher, _>(&x), hash_with::<FxHasher, _>(a.as_str()));
        prop_assert_eq!(
            hash_with::<DefaultHasher, _>(&x),
            hash_with::<DefaultHasher, _>(a.as_str())
        );
    }

    #[test]
    fn serde_round_trips_land_on_the_same_handle(
        a in ".{0,12}",
        ts in any::<i64>(),
        v in any::<i64>(),
    ) {
        let x = StreamName::new(&a);
        let json = serde_json::to_string(&x).unwrap();
        prop_assert_eq!(&json, &serde_json::to_string(&a).unwrap());
        let back: StreamName = serde_json::from_str(&json).unwrap();
        prop_assert!(std::ptr::eq(back.as_str(), x.as_str()));

        let t = Tuple::new(x, Timestamp(ts), vec![Value::Int(v)]);
        let back: Tuple = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
        prop_assert!(std::ptr::eq(back.stream.as_str(), x.as_str()));
        prop_assert_eq!(back, t);
    }
}

#[test]
fn the_empty_string_is_one_name() {
    let (a, b) = (StreamName::new(""), StreamName::new(String::new()));
    assert_eq!(a, b);
    assert_eq!(a.as_str(), "");
    assert_ne!(a, StreamName::new(" "));
}

#[test]
fn two_threads_interning_one_name_get_one_pointer() {
    let text = "interned::by::two::threads";
    let [a, b] = std::thread::scope(|s| {
        let handles = [(); 2].map(|()| s.spawn(|| StreamName::new(text)));
        handles.map(|h| h.join().unwrap())
    });
    assert!(std::ptr::eq(a.as_str(), b.as_str()));
    assert_eq!(a, b);
}

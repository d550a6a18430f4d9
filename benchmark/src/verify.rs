//! Correctness: deliveries against the reference evaluator, digests
//! against repetition 0.

use crate::sut::{self, Catalog, QueryId, Sut, Tuple};
use crate::workloads::{Op, Verify, Workload};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A query's delivered results, reduced to three numbers. `ordered`
/// depends on the delivery sequence, `multiset` only on its content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub count: u64,
    pub ordered: u64,
    pub multiset: u64,
}

pub fn digest(tuples: &[Tuple]) -> Digest {
    let mut d = Digest::default();
    for t in tuples {
        // `DefaultHasher::new()` has fixed keys: same value on every run.
        let mut h = DefaultHasher::new();
        t.stream.as_str().hash(&mut h);
        t.timestamp.hash(&mut h);
        t.values().hash(&mut h);
        let h = h.finish();
        d.count += 1;
        d.ordered = (d.ordered.rotate_left(5) ^ h).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        d.multiset = d.multiset.wrapping_add(h);
    }
    d
}

/// Compare every verifiable query's `results(qid)` with the reference
/// evaluator on the query's own text. Returns the number of queries
/// checked and one line per mismatch.
pub fn against_reference(
    w: &Workload,
    sut: &Sut,
    qids: &[Option<QueryId>],
    catalog: &Catalog,
) -> (usize, Vec<String>) {
    let cutoff = match w.verify {
        Verify::Prefix(n) => w
            .reference_input
            .get(n.min(w.reference_input.len()).saturating_sub(1))
            .map(|t| t.timestamp),
        _ => None,
    };
    let in_scope = |t: &Tuple| cutoff.is_none_or(|c| t.timestamp <= c);
    let mut verified = 0;
    let mut mismatches = Vec::new();
    for (q, ((text, _), qid)) in w.queries.iter().zip(qids).take(w.startup).enumerate() {
        let analyzed = match sut::parse(text).and_then(|p| sut::analyze(&p, catalog)) {
            Ok(a) => a,
            Err(e) => {
                mismatches.push(format!("'{text}': {e}"));
                continue;
            }
        };
        if w.verify == Verify::StatelessSurvivors
            && (!analyzed.is_stateless() || w.ops.contains(&Op::Unsubscribe(q)))
        {
            continue;
        }
        verified += 1;
        let Some(qid) = *qid else {
            mismatches.push(format!("'{text}': was not admitted"));
            continue;
        };
        let streams = analyzed.streams();
        let inputs: Vec<Tuple> = w
            .reference_input
            .iter()
            .filter(|t| in_scope(t) && streams.iter().any(|s| s == t.stream.as_str()))
            .cloned()
            .collect();
        let delivered: Vec<Tuple> = sut
            .results(qid)
            .iter()
            .filter(|t| in_scope(t))
            .cloned()
            .collect();
        let want = sut::expected_results(&analyzed, &inputs);
        let got = sut::normalize_delivered(&delivered);
        if want != got {
            let at = want
                .iter()
                .zip(&got)
                .position(|(a, b)| a != b)
                .unwrap_or(want.len().min(got.len()));
            mismatches.push(format!(
                "'{text}': expected {} results, delivered {}; first difference at #{at}: \
                 expected {:?}, delivered {:?}",
                want.len(),
                got.len(),
                want.get(at),
                got.get(at)
            ));
        }
    }
    (verified, mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::{Timestamp, Value};

    fn t(ts: i64, v: i64) -> Tuple {
        Tuple::new("S", Timestamp(ts), vec![Value::Int(v)])
    }

    #[test]
    fn digests_separate_order_from_content() {
        let (a, b) = (digest(&[t(1, 1), t(2, 2)]), digest(&[t(2, 2), t(1, 1)]));
        assert_eq!(a.count, 2);
        assert_eq!(a.multiset, b.multiset);
        assert_ne!(a.ordered, b.ordered);
        assert_ne!(a.multiset, digest(&[t(1, 1), t(2, 3)]).multiset);
        assert_eq!(a, digest(&[t(1, 1), t(2, 2)]));
    }
}

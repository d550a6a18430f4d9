//! Per-attribute observation: running min/max and a KMV distinct sketch.
//!
//! Routers sample every Nth tuple (see `MetricsConfig::sample_every`)
//! and feed the sampled attribute values here. The observer keeps what
//! the query optimizer's cost model needs — value range and distinct
//! count — in a fixed-size footprint, so it can be converted straight
//! back into an [`AttrStats`] by the measured-stats adapter.

use cosmos_query::AttrStats;
use cosmos_types::Value;
use rustc_hash::FxHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

/// Sketch size: the KMV estimator keeps the `K` smallest value hashes.
pub const KMV_K: usize = 64;

/// Streaming statistics for one attribute of one stream.
#[derive(Debug, Clone, Default)]
pub struct AttrObserver {
    samples: u64,
    numeric: bool,
    min: f64,
    max: f64,
    /// The `KMV_K` smallest 64-bit hashes seen so far.
    kmv: BTreeSet<u64>,
    /// Largest hash in the sketch, cached so the steady-state rejection
    /// (hash not among the `KMV_K` smallest) is a single compare.
    kmv_max: u64,
}

impl AttrObserver {
    /// Feed one sampled value.
    pub fn observe(&mut self, v: &Value) {
        if matches!(v, Value::Null) {
            return;
        }
        self.samples += 1;
        let mut hasher = FxHasher::default();
        v.hash(&mut hasher);
        let h = hasher.finish();
        if self.kmv.len() < KMV_K {
            self.kmv.insert(h);
            self.kmv_max = self.kmv_max.max(h);
        } else if h < self.kmv_max && self.kmv.insert(h) {
            self.kmv.remove(&self.kmv_max);
            self.kmv_max = *self.kmv.iter().next_back().expect("sketch is full");
        }
        if let Some(x) = v.as_f64() {
            if x.is_finite() {
                if !self.numeric {
                    self.numeric = true;
                    self.min = x;
                    self.max = x;
                } else {
                    self.min = self.min.min(x);
                    self.max = self.max.max(x);
                }
            }
        }
    }

    /// Number of non-null samples observed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// KMV estimate of the number of distinct values.
    ///
    /// With fewer than `KMV_K` distinct hashes the sketch is exact; past
    /// that, the classic `(k-1) / kth-smallest-normalized-hash`
    /// estimator applies.
    pub fn distinct(&self) -> f64 {
        if self.kmv.len() < KMV_K {
            return self.kmv.len() as f64;
        }
        let kth = *self.kmv.iter().next_back().expect("sketch is full");
        let normalized = (kth as f64 + 1.0) / (u64::MAX as f64 + 1.0);
        ((KMV_K - 1) as f64 / normalized).max(KMV_K as f64)
    }

    /// Convert the observation into optimizer-facing [`AttrStats`].
    /// `None` until at least one non-null value was sampled.
    pub fn attr_stats(&self) -> Option<AttrStats> {
        if self.samples == 0 {
            return None;
        }
        Some(if self.numeric {
            AttrStats::numeric(self.min, self.max, self.distinct())
        } else {
            AttrStats::categorical(self.distinct())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cardinality_is_exact() {
        let mut o = AttrObserver::default();
        for i in 0..1000 {
            o.observe(&Value::Int(i % 7));
        }
        assert_eq!(o.distinct() as i64, 7);
        let s = o.attr_stats().expect("sampled");
        assert_eq!(s.min as i64, 0);
        assert_eq!(s.max as i64, 6);
    }

    #[test]
    fn large_cardinality_is_approximate() {
        let mut o = AttrObserver::default();
        let n = 10_000i64;
        for i in 0..n {
            o.observe(&Value::Int(i));
        }
        let est = o.distinct();
        let err = (est - n as f64).abs() / n as f64;
        assert!(err < 0.35, "estimate {est} off by {err}");
    }

    #[test]
    fn nulls_are_ignored_and_strings_are_categorical() {
        let mut o = AttrObserver::default();
        o.observe(&Value::Null);
        assert!(o.attr_stats().is_none());
        o.observe(&Value::str("a"));
        o.observe(&Value::str("b"));
        let s = o.attr_stats().expect("sampled");
        assert_eq!(s.distinct as i64, 2);
        assert_eq!(s.min, 0.0, "categorical attrs have no numeric range");
    }
}

//! Arrival envelopes and the extended-real bound arithmetic.
//!
//! An [`Envelope`] abstracts what a stream can deliver: how many tuples
//! in total (`N`), how many can coexist inside a closed sliding window
//! of a given width (`W`), and how wide a single tuple can be (`B`).
//! Every quantitative bound in [`crate::query_bounds`] is a closed-form
//! expression over these three per-stream quantities, so the same
//! formulas serve two instantiations:
//!
//! * **Rate envelopes** ([`StreamEnvelope::Rate`]) — from a declared
//!   arrival rate, for capacity planning and the `cosmos-bound` report.
//! * **Trace envelopes** ([`Envelope::record`]) — from the tuples
//!   actually published, which the testkit's soundness oracle uses so
//!   that measured metrics check the *formulas*, independent of
//!   catalog accuracy.

use cosmos_types::{StreamName, TimeDelta};
use std::collections::BTreeMap;
use std::fmt;

/// A worst-case quantity: a finite number or provably unbounded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// At most this many (rows, bytes, …).
    Finite(f64),
    /// No finite bound is derivable.
    Unbounded,
}

impl Bound {
    /// The zero bound.
    pub const ZERO: Bound = Bound::Finite(0.0);

    /// The finite value, if any.
    pub fn as_finite(self) -> Option<f64> {
        match self {
            Bound::Finite(x) => Some(x),
            Bound::Unbounded => None,
        }
    }

    /// Whether no finite bound exists.
    pub fn is_unbounded(self) -> bool {
        matches!(self, Bound::Unbounded)
    }

    /// Whether a measured value stays within the bound. An unbounded
    /// bound dominates everything.
    pub fn dominates(self, measured: f64) -> bool {
        match self {
            Bound::Finite(x) => measured <= x,
            Bound::Unbounded => true,
        }
    }
}

/// Saturating addition: `∞ + x = ∞`.
impl std::ops::Add for Bound {
    type Output = Bound;

    fn add(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a + b),
            _ => Bound::Unbounded,
        }
    }
}

/// Saturating multiplication with the measure-theoretic zero rule
/// `0 × ∞ = 0`: an empty window contributes nothing even when the other
/// factor is unbounded.
impl std::ops::Mul for Bound {
    type Output = Bound;

    fn mul(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a * b),
            (Bound::Finite(x), Bound::Unbounded) | (Bound::Unbounded, Bound::Finite(x))
                if x == 0.0 =>
            {
                Bound::ZERO
            }
            _ => Bound::Unbounded,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Finite(x) => write!(f, "{x}"),
            Bound::Unbounded => f.write_str("∞"),
        }
    }
}

/// What one stream can deliver, in one of two precisions.
#[derive(Debug, Clone)]
pub enum StreamEnvelope {
    /// Catalog abstraction: a mean arrival rate, an optional finite
    /// horizon, and an estimated per-tuple width.
    Rate {
        /// Mean arrivals per second.
        tuples_per_sec: f64,
        /// Total lifetime in seconds, when the deployment is finite.
        horizon_secs: Option<f64>,
        /// Estimated wire bytes per tuple (header included).
        tuple_bytes: f64,
    },
    /// Observed trace: per-tuple arrival timestamps (in publish order)
    /// and the widest tuple seen.
    Trace {
        /// Arrival timestamps in milliseconds, publish order.
        timestamps: Vec<i64>,
        /// Largest observed [`cosmos_types::Tuple::size_bytes`].
        max_tuple_bytes: u64,
        /// Whether the timestamps are nondecreasing (the executor's
        /// arrival contract); a violation degrades `W` to `N`.
        nondecreasing: bool,
    },
}

impl StreamEnvelope {
    /// `N`: total rows the stream can ever deliver.
    fn total_rows(&self) -> Bound {
        match self {
            StreamEnvelope::Rate {
                tuples_per_sec,
                horizon_secs,
                ..
            } => match horizon_secs {
                Some(h) => Bound::Finite((tuples_per_sec * h).ceil() + 1.0),
                None => Bound::Unbounded,
            },
            StreamEnvelope::Trace { timestamps, .. } => Bound::Finite(timestamps.len() as f64),
        }
    }

    /// `W(w)`: the most rows that can coexist in a closed window
    /// `[τ − w, τ]` anchored at any arrival τ, widened by the declared
    /// reorder `slack` (see [`Envelope::set_reorder_slack`]).
    fn window_rows(&self, w: TimeDelta, slack: Option<TimeDelta>) -> Bound {
        if w.is_infinite() {
            return self.total_rows();
        }
        let w_ms = match slack {
            Some(s) => w.millis().saturating_add(s.millis()),
            None => w.millis(),
        };
        // max over k of #{j ≤ k : ts_j ≥ ts_k − w} — exactly the
        // executor's eviction rule (strictly-older tuples are popped,
        // the closed boundary is retained).
        let scan = |sorted_ts: &[i64]| {
            let (mut lo, mut best) = (0usize, 0usize);
            for (k, &ts) in sorted_ts.iter().enumerate() {
                while sorted_ts[lo] < ts - w_ms {
                    lo += 1;
                }
                best = best.max(k - lo + 1);
            }
            Bound::Finite(best as f64)
        };
        match self {
            StreamEnvelope::Rate { tuples_per_sec, .. } => {
                // Mean-rate occupancy plus the anchoring arrival itself.
                Bound::Finite((tuples_per_sec * (w_ms as f64 / 1_000.0)).ceil() + 1.0)
            }
            StreamEnvelope::Trace {
                timestamps,
                nondecreasing,
                ..
            } => {
                if *nondecreasing {
                    scan(timestamps)
                } else if slack.is_some() {
                    // With a declared reorder slack the executor
                    // processes arrivals in timestamp order (staged
                    // behind the watermark frontier), so the sorted
                    // trace *is* the processing order and the slack
                    // covers grace-window retention.
                    let mut sorted = timestamps.clone();
                    sorted.sort_unstable();
                    scan(&sorted)
                } else {
                    // Out-of-order arrivals with no declared slack break
                    // the two-pointer scan; the total is always sound.
                    Bound::Finite(timestamps.len() as f64)
                }
            }
        }
    }

    /// `B`: the widest tuple the stream can deliver, wire bytes.
    fn tuple_bytes(&self) -> Bound {
        match self {
            StreamEnvelope::Rate { tuple_bytes, .. } => Bound::Finite(*tuple_bytes),
            StreamEnvelope::Trace {
                max_tuple_bytes, ..
            } => Bound::Finite(*max_tuple_bytes as f64),
        }
    }
}

/// Per-stream arrival envelopes. Streams absent from the envelope have
/// no derivable bound: every query over them reports [`Bound::Unbounded`]
/// rather than a wrong number.
#[derive(Debug, Clone, Default)]
pub struct Envelope {
    streams: BTreeMap<StreamName, StreamEnvelope>,
    /// Declared maximum timestamp displacement of arrivals (disorder
    /// mode); widens every window-occupancy answer.
    reorder_slack: Option<TimeDelta>,
}

impl Envelope {
    /// An empty envelope (everything unbounded).
    pub fn new() -> Envelope {
        Envelope::default()
    }

    /// Declare that arrivals may be displaced by up to `slack` of
    /// application time (the disorder bound). Two effects, both needed
    /// for the bounds to stay sound out of order: every
    /// window-occupancy query is answered for `w + slack` — covering
    /// grace-window retention (revision history) beside the live window
    /// — and non-monotone traces are evaluated in *sorted* order
    /// instead of degrading to the total, because the staged executor
    /// processes arrivals in timestamp order regardless of publish
    /// order. `None` (the default) restores the in-order behavior.
    pub fn set_reorder_slack(&mut self, slack: Option<TimeDelta>) {
        self.reorder_slack = slack;
    }

    /// Install or replace one stream's envelope.
    pub fn set(&mut self, stream: StreamName, envelope: StreamEnvelope) {
        self.streams.insert(stream, envelope);
    }

    /// Append one observed arrival to a stream's trace envelope
    /// (creating it on first use). `size_bytes` is the published
    /// tuple's wire size.
    pub fn record(&mut self, stream: &StreamName, ts_millis: i64, size_bytes: usize) {
        let e = self
            .streams
            .entry(*stream)
            .or_insert(StreamEnvelope::Trace {
                timestamps: Vec::new(),
                max_tuple_bytes: 0,
                nondecreasing: true,
            });
        match e {
            StreamEnvelope::Trace {
                timestamps,
                max_tuple_bytes,
                nondecreasing,
            } => {
                if timestamps.last().is_some_and(|&last| ts_millis < last) {
                    *nondecreasing = false;
                }
                timestamps.push(ts_millis);
                *max_tuple_bytes = (*max_tuple_bytes).max(size_bytes as u64);
            }
            StreamEnvelope::Rate { .. } => {
                // Mixing a trace into a rate envelope is a caller bug;
                // keep the rate abstraction (it is not oracle-checked).
            }
        }
    }

    /// `N(s)`: total rows stream `s` can ever deliver.
    pub fn total_rows(&self, stream: &StreamName) -> Bound {
        self.streams
            .get(stream)
            .map_or(Bound::Unbounded, StreamEnvelope::total_rows)
    }

    /// `W(s, w)`: most rows of `s` coexisting in a closed window of
    /// width `w`.
    pub fn window_rows(&self, stream: &StreamName, w: TimeDelta) -> Bound {
        self.streams
            .get(stream)
            .map_or(Bound::Unbounded, |e| e.window_rows(w, self.reorder_slack))
    }

    /// `B(s)`: widest tuple of `s`, wire bytes.
    pub fn tuple_bytes(&self, stream: &StreamName) -> Bound {
        self.streams
            .get(stream)
            .map_or(Bound::Unbounded, StreamEnvelope::tuple_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_arithmetic_saturates_with_zero_rule() {
        let two = Bound::Finite(2.0);
        assert_eq!(two + Bound::Finite(3.0), Bound::Finite(5.0));
        assert_eq!(two + Bound::Unbounded, Bound::Unbounded);
        assert_eq!(two * Bound::Unbounded, Bound::Unbounded);
        assert_eq!(Bound::ZERO * Bound::Unbounded, Bound::ZERO);
        assert_eq!(Bound::Unbounded * Bound::ZERO, Bound::ZERO);
        assert!(Bound::Unbounded.dominates(1e18));
        assert!(two.dominates(2.0));
        assert!(!two.dominates(2.5));
    }

    #[test]
    fn trace_window_occupancy_is_exact_on_monotone_arrivals() {
        let mut env = Envelope::new();
        let s = StreamName::from("S");
        for (ts, bytes) in [(0, 20), (100, 30), (150, 25), (1000, 20)] {
            env.record(&s, ts, bytes);
        }
        assert_eq!(env.total_rows(&s), Bound::Finite(4.0));
        assert_eq!(env.tuple_bytes(&s), Bound::Finite(30.0));
        // w = 100 ms: {0,100} and {100,150} both fit; {0,100,150} not.
        assert_eq!(
            env.window_rows(&s, TimeDelta::from_millis(100)),
            Bound::Finite(2.0)
        );
        // Closed boundary: ts 0 is retained at τ = 100 with w = 100.
        assert_eq!(
            env.window_rows(&s, TimeDelta::from_millis(150)),
            Bound::Finite(3.0)
        );
        // Now-window: no two arrivals share a timestamp.
        assert_eq!(env.window_rows(&s, TimeDelta::ZERO), Bound::Finite(1.0));
        assert_eq!(env.window_rows(&s, TimeDelta::INFINITE), Bound::Finite(4.0));
    }

    #[test]
    fn out_of_order_trace_degrades_to_total() {
        let mut env = Envelope::new();
        let s = StreamName::from("S");
        for ts in [0, 500, 100] {
            env.record(&s, ts, 20);
        }
        assert_eq!(
            env.window_rows(&s, TimeDelta::from_millis(1)),
            Bound::Finite(3.0)
        );
    }

    #[test]
    fn reorder_slack_tightens_disordered_traces() {
        let mut env = Envelope::new();
        let s = StreamName::from("S");
        for ts in [0, 500, 100] {
            env.record(&s, ts, 20);
        }
        env.set_reorder_slack(Some(TimeDelta::from_millis(400)));
        // Sorted processing order is [0, 100, 500]; width 1 + 400 fits
        // {0, 100} and {100, 500} but never all three — tighter than
        // the slack-free degradation to the total (3).
        assert_eq!(
            env.window_rows(&s, TimeDelta::from_millis(1)),
            Bound::Finite(2.0)
        );
        // Clearing the slack restores the degraded answer.
        env.set_reorder_slack(None);
        assert_eq!(
            env.window_rows(&s, TimeDelta::from_millis(1)),
            Bound::Finite(3.0)
        );
    }

    #[test]
    fn reorder_slack_widens_monotone_windows_for_grace_retention() {
        let mut env = Envelope::new();
        let s = StreamName::from("S");
        for ts in [0, 100, 150, 1000] {
            env.record(&s, ts, 20);
        }
        // In order, w = 100 holds at most 2 rows; a 50 ms grace window
        // can retain {0, 100, 150} together.
        env.set_reorder_slack(Some(TimeDelta::from_millis(50)));
        assert_eq!(
            env.window_rows(&s, TimeDelta::from_millis(100)),
            Bound::Finite(3.0)
        );
    }

    #[test]
    fn unknown_stream_is_unbounded() {
        let env = Envelope::new();
        let s = StreamName::from("nope");
        assert!(env.total_rows(&s).is_unbounded());
        assert!(env.window_rows(&s, TimeDelta::ZERO).is_unbounded());
        assert!(env.tuple_bytes(&s).is_unbounded());
    }
}

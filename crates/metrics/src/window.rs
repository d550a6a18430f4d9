//! Bucketed sliding-window rate estimation over virtual time.
//!
//! A [`RateWindow`] covers the trailing `window` of virtual time with a
//! fixed number of coarse buckets, so the whole window costs a few dozen
//! bytes regardless of traffic volume. A sample that falls in the newest
//! bucket — the usual case — is a range check and two additions; only a
//! sample that opens or revisits another bucket divides and searches
//! the (at most eight) live buckets.
//! Lifetime totals are kept exactly alongside the windowed counts: the
//! conservation oracle in cosmos-testkit checks the totals, while rate
//! queries use the window.
//!
//! All bucketing is keyed by tuple timestamps (virtual time), never the
//! wall clock, so metrics are deterministic and replayable.

use cosmos_types::TimeDelta;
use std::collections::VecDeque;

/// Number of buckets a window is divided into.
pub const WINDOW_BUCKETS: i64 = 8;

/// Sliding tuple/byte counters over the trailing window of virtual time.
#[derive(Debug, Clone)]
pub struct RateWindow {
    bucket_ms: i64,
    /// Live buckets in ascending bucket-index order (at most
    /// [`WINDOW_BUCKETS`] entries).
    buckets: VecDeque<Bucket>,
    total_tuples: u64,
    total_bytes: u64,
    /// Virtual time of the first recorded sample, for ramp-up rates
    /// before a full window has elapsed.
    first_ms: Option<i64>,
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    index: i64,
    tuples: u64,
    bytes: u64,
}

impl RateWindow {
    /// A window spanning `window` of virtual time.
    pub fn new(window: TimeDelta) -> RateWindow {
        let span_ms = window.millis().max(WINDOW_BUCKETS);
        RateWindow {
            bucket_ms: (span_ms / WINDOW_BUCKETS).max(1),
            buckets: VecDeque::new(),
            total_tuples: 0,
            total_bytes: 0,
            first_ms: None,
        }
    }

    /// Record `tuples` tuples totalling `bytes` bytes at virtual time
    /// `at_ms`. Out-of-order samples whose bucket is still live inside
    /// the window land in that bucket; only samples older than the whole
    /// window fold into the oldest live bucket, so memory stays bounded.
    pub fn record(&mut self, at_ms: i64, tuples: u64, bytes: u64) {
        self.total_tuples += tuples;
        self.total_bytes += bytes;
        if self.first_ms.is_none() || at_ms < self.first_ms.unwrap_or(i64::MAX) {
            self.first_ms = Some(at_ms);
        }
        if let Some(back) = self.buckets.back_mut() {
            // Most samples land where the last one did: test the newest
            // bucket's span without dividing. Arithmetic that would
            // overflow near the ends of the time domain falls through
            // to the dividing body, which is exact everywhere.
            let lo = back.index.checked_mul(self.bucket_ms);
            let offset = lo.and_then(|lo| at_ms.checked_sub(lo));
            if offset.is_some_and(|d| (0..self.bucket_ms).contains(&d)) {
                back.tuples += tuples;
                back.bytes += bytes;
                return;
            }
        }
        let index = at_ms.div_euclid(self.bucket_ms);
        if let Some(back) = self.buckets.back() {
            if index <= back.index {
                let oldest_live = back.index - (WINDOW_BUCKETS - 1);
                if index < oldest_live {
                    // Below the whole window: the only place left that
                    // keeps the mass countable is the oldest live bucket.
                    let front = self.buckets.front_mut().expect("non-empty deque");
                    front.tuples += tuples;
                    front.bytes += bytes;
                    return;
                }
                match self.buckets.binary_search_by_key(&index, |b| b.index) {
                    Ok(pos) => {
                        let b = &mut self.buckets[pos];
                        b.tuples += tuples;
                        b.bytes += bytes;
                    }
                    Err(pos) => {
                        self.buckets.insert(
                            pos,
                            Bucket {
                                index,
                                tuples,
                                bytes,
                            },
                        );
                        // Inserting into a gap can overflow the bucket
                        // budget; anything trimmed is below `oldest_live`.
                        while self.buckets.len() as i64 > WINDOW_BUCKETS {
                            self.buckets.pop_front();
                        }
                    }
                }
                return;
            }
        }
        self.buckets.push_back(Bucket {
            index,
            tuples,
            bytes,
        });
        while self.buckets.len() as i64 > WINDOW_BUCKETS {
            self.buckets.pop_front();
        }
    }

    /// Exact lifetime tuple count.
    pub fn total_tuples(&self) -> u64 {
        self.total_tuples
    }

    /// Exact lifetime byte count.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Tuples and bytes recorded in the live window as of `now_ms`.
    pub(crate) fn windowed(&self, now_ms: i64) -> (u64, u64) {
        let oldest_live = now_ms.div_euclid(self.bucket_ms) - (WINDOW_BUCKETS - 1);
        let mut tuples = 0;
        let mut bytes = 0;
        for b in &self.buckets {
            if b.index >= oldest_live && b.index <= now_ms.div_euclid(self.bucket_ms) {
                tuples += b.tuples;
                bytes += b.bytes;
            }
        }
        (tuples, bytes)
    }

    /// Effective window span at `now_ms`, in seconds: the configured
    /// window, shortened during ramp-up to the time actually observed.
    fn span_secs(&self, now_ms: i64) -> f64 {
        let window_ms = self.bucket_ms * WINDOW_BUCKETS;
        let observed_ms = match self.first_ms {
            Some(f) => (now_ms - f + 1).max(1),
            None => 1,
        };
        window_ms.min(observed_ms) as f64 / 1000.0
    }

    /// Windowed arrival rate in tuples per second as of `now_ms`.
    pub fn tuple_rate(&self, now_ms: i64) -> f64 {
        self.windowed(now_ms).0 as f64 / self.span_secs(now_ms)
    }

    /// Windowed throughput in bytes per second as of `now_ms`.
    pub fn byte_rate(&self, now_ms: i64) -> f64 {
        self.windowed(now_ms).1 as f64 / self.span_secs(now_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_are_exact_and_window_slides() {
        let mut w = RateWindow::new(TimeDelta::from_secs(8));
        for t in 0..16 {
            w.record(t * 1000, 2, 20);
        }
        assert_eq!(w.total_tuples(), 32);
        assert_eq!(w.total_bytes(), 320);
        // At t=15s only the last 8 seconds (16 tuples) are live.
        let rate = w.tuple_rate(15_999);
        assert!((rate - 2.0).abs() < 0.2, "rate {rate}");
        // Far in the future the window is empty.
        assert_eq!(w.tuple_rate(1_000_000) as i64, 0);
        assert_eq!(w.total_tuples(), 32, "totals never decay");
    }

    #[test]
    fn ramp_up_uses_observed_span() {
        let mut w = RateWindow::new(TimeDelta::from_secs(60));
        // 10 tuples over 2 seconds: a 60s denominator would report 0.17
        // tuples/s; the ramp-up span reports ~5/s.
        for t in 0..10 {
            w.record(t * 200, 1, 10);
        }
        let rate = w.tuple_rate(1_999);
        assert!((rate - 5.0).abs() < 0.5, "rate {rate}");
    }

    #[test]
    fn out_of_order_samples_land_in_their_own_live_bucket() {
        let mut w = RateWindow::new(TimeDelta::from_secs(8));
        w.record(7_000, 1, 10);
        w.record(1_000, 1, 10);
        assert_eq!(w.total_tuples(), 2);
        let (tuples, _) = w.windowed(7_000);
        assert_eq!(tuples, 2);
        // At t=9s the 1s bucket has slid out of the window; only the 7s
        // sample remains live. Folding into the newest bucket would
        // misreport 2 here.
        let (tuples, bytes) = w.windowed(9_000);
        assert_eq!(tuples, 1);
        assert_eq!(bytes, 10);
    }

    #[test]
    fn below_window_samples_fold_into_oldest_live_bucket() {
        let mut w = RateWindow::new(TimeDelta::from_secs(8));
        w.record(20_000, 1, 10);
        w.record(15_000, 1, 10);
        // index 1 is below the live range [13, 20]: folds into the
        // oldest live bucket (15s) rather than growing the deque.
        w.record(1_000, 1, 10);
        assert_eq!(w.total_tuples(), 3);
        let (tuples, _) = w.windowed(20_000);
        assert_eq!(tuples, 3);
        // Once the 15s bucket slides out it takes the folded mass along.
        let (tuples, _) = w.windowed(23_000);
        assert_eq!(tuples, 1);
    }

    #[test]
    fn disordered_feed_matches_in_order_rates() {
        // The same 16 samples, in order and bit-reversed (a deterministic
        // shuffle with plenty of backward jumps): every windowed rate
        // query must agree, since each sample lands in its own bucket.
        let times: Vec<i64> = (0..16).map(|t| t * 500).collect();
        let mut ordered = RateWindow::new(TimeDelta::from_secs(8));
        for &t in &times {
            ordered.record(t, 1, 10);
        }
        let mut disordered = RateWindow::new(TimeDelta::from_secs(8));
        for i in 0..16usize {
            let rev = i.reverse_bits() >> (usize::BITS - 4);
            disordered.record(times[rev], 1, 10);
        }
        assert_eq!(disordered.total_tuples(), ordered.total_tuples());
        for now in [3_999, 7_500, 9_999, 15_000] {
            assert_eq!(
                disordered.windowed(now),
                ordered.windowed(now),
                "windowed counts diverge at {now}"
            );
            let (a, b) = (disordered.tuple_rate(now), ordered.tuple_rate(now));
            assert!((a - b).abs() < 1e-9, "rate diverges at {now}: {a} vs {b}");
        }
    }

    #[test]
    fn samples_at_the_ends_of_the_time_domain_do_not_overflow() {
        // `at − lo` with the newest bucket far on the other side of zero,
        // and `index × bucket` past either end, must not panic in a
        // debug build; every sample still counts. Samples below the
        // whole window fold into the oldest live bucket — the newest
        // one itself when `i64::MAX` came first.
        for (order, live_at_the_end) in [
            ([i64::MIN, -1, 0, i64::MAX], 2),
            ([i64::MAX, 0, -1, i64::MIN], 8),
            ([-1, i64::MAX, i64::MIN, 0], 2),
        ] {
            let mut w = RateWindow::new(TimeDelta::from_secs(60));
            for (n, at) in order.into_iter().enumerate() {
                w.record(at, 1, 10);
                w.record(at, 1, 10);
                assert_eq!(w.total_tuples(), 2 * (n as u64 + 1));
            }
            assert_eq!(w.total_bytes(), 80);
            assert_eq!(w.windowed(i64::MAX).0, live_at_the_end, "{order:?}");
        }
    }

    #[test]
    fn zero_width_windows_are_clamped() {
        let mut w = RateWindow::new(TimeDelta::ZERO);
        w.record(0, 1, 10);
        assert!(w.tuple_rate(0).is_finite());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The window's contract with every sample kept: a sample belongs to
    /// the bucket `at.div_euclid(bucket)`, unless that lies below the
    /// whole window of the newest sample so far — then to the oldest
    /// bucket live at that moment; the eight newest buckets are live.
    struct Reference {
        bucket_ms: i64,
        /// `(bucket, tuples, bytes)` of every sample.
        samples: Vec<(i64, u64, u64)>,
        first_ms: i64,
    }

    impl Reference {
        fn record(&mut self, at_ms: i64, tuples: u64, bytes: u64) {
            let buckets: BTreeSet<i64> = self.samples.iter().map(|s| s.0).collect();
            let live: Vec<i64> = buckets
                .into_iter()
                .rev()
                .take(WINDOW_BUCKETS as usize)
                .collect();
            let mut bucket = at_ms.div_euclid(self.bucket_ms);
            if let (Some(newest), Some(oldest)) = (live.first(), live.last()) {
                if bucket < newest - (WINDOW_BUCKETS - 1) {
                    bucket = *oldest;
                }
            }
            self.samples.push((bucket, tuples, bytes));
            self.first_ms = self.first_ms.min(at_ms);
        }

        fn windowed(&self, now_ms: i64) -> (u64, u64) {
            let newest = now_ms.div_euclid(self.bucket_ms);
            let live = newest - (WINDOW_BUCKETS - 1)..=newest;
            let inside = self.samples.iter().filter(|s| live.contains(&s.0));
            inside.fold((0, 0), |(t, b), s| (t + s.1, b + s.2))
        }

        fn span_secs(&self, now_ms: i64) -> f64 {
            let observed_ms = (now_ms - self.first_ms + 1).max(1);
            (self.bucket_ms * WINDOW_BUCKETS).min(observed_ms) as f64 / 1000.0
        }
    }

    /// Sample times as steps from the previous one: mostly small (the
    /// same bucket or the next), some a few buckets either way, some far
    /// into the past or the future.
    fn arb_steps() -> impl Strategy<Value = Vec<(i64, u64, u64)>> {
        let step = prop_oneof![0..40i64, -40..40i64, -3_000..3_000i64, -200_000..200_000i64,];
        proptest::collection::vec((step, 0..5u64, 0..500u64), 1..80)
    }

    proptest! {
        #[test]
        fn every_sample_lands_where_the_reference_puts_it(
            window_ms in prop_oneof![0..40i64, 900..1_100i64, 59_000..61_000i64],
            start in -100_000..100_000i64,
            steps in arb_steps(),
        ) {
            let mut w = RateWindow::new(TimeDelta::from_millis(window_ms));
            let mut reference = Reference {
                bucket_ms: (window_ms.max(WINDOW_BUCKETS) / WINDOW_BUCKETS).max(1),
                samples: Vec::new(),
                first_ms: i64::MAX,
            };
            let (mut at, mut newest) = (start, i64::MIN);
            for (step, tuples, bytes) in steps {
                at += step;
                newest = newest.max(at);
                w.record(at, tuples, bytes);
                reference.record(at, tuples, bytes);
                let totals = reference.samples.iter().fold((0, 0), |(t, b), s| (t + s.1, b + s.2));
                prop_assert_eq!((w.total_tuples(), w.total_bytes()), totals);
                // As the hub reads it: never before the newest sample.
                for now in [newest, newest + window_ms / 2, newest + 3 * window_ms] {
                    let (tuples, bytes) = reference.windowed(now);
                    prop_assert_eq!(w.windowed(now), (tuples, bytes));
                    let span = reference.span_secs(now);
                    prop_assert_eq!(w.tuple_rate(now), tuples as f64 / span);
                    prop_assert_eq!(w.byte_rate(now), bytes as f64 / span);
                }
            }
        }
    }
}

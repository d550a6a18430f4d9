//! The two estimators every reported number goes through.
//!
//! A workload runs R identical repetitions, so timed operation `i` is
//! the same work in every repetition. Its reported time is the minimum
//! over the repetitions ([`per_index_min`]): host interference on a
//! shared machine only ever adds time, and it arrives in multi-second
//! plateaus that a per-repetition median cannot see through. Latency
//! metrics are nearest-rank percentiles over the per-index minima.

/// Per-index minimum over repetitions: `reps[r][i]` is the time of
/// operation `i` in repetition `r`. Every repetition must time the same
/// number of operations.
pub fn per_index_min(reps: &[Vec<u64>]) -> Vec<u64> {
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    assert!(
        reps.iter().all(|r| r.len() == first.len()),
        "repetitions timed different numbers of operations"
    );
    (0..first.len())
        .map(|i| reps.iter().map(|r| r[i]).min().expect("non-empty"))
        .collect()
}

/// Nearest-rank percentile (`0 < p <= 100`) of unsorted samples: the
/// smallest sample with at least `p` percent of the samples at or below
/// it. Returns 0 for an empty slice.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.5), 1);
        // Order of the input does not matter.
        let mut shuffled = v.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 95.0), 95);
        // 1024 publish indexes leave exactly ten samples beyond p99.
        let big: Vec<u64> = (1..=1024).collect();
        assert_eq!(percentile(&big, 99.0), 1014);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn even_sample_counts_take_the_lower_median() {
        assert_eq!(percentile(&[10, 20, 30, 40], 50.0), 20);
    }

    #[test]
    fn per_index_min_picks_each_operations_best_repetition() {
        let reps = vec![vec![10, 50, 30], vec![12, 40, 33], vec![11, 45, 29]];
        assert_eq!(per_index_min(&reps), vec![10, 40, 29]);
        assert_eq!(per_index_min(&[]), Vec::<u64>::new());
    }

    /// The case the rule exists for: one whole repetition ran on a
    /// slow plateau. The estimate must equal the clean repetitions'.
    #[test]
    fn a_uniformly_slow_repetition_does_not_move_the_estimate() {
        let clean: Vec<u64> = (0..1000).map(|i| 1000 + (i * 37) % 211).collect();
        let slow: Vec<u64> = clean.iter().map(|t| t * 3 / 2).collect();
        let jitter: Vec<u64> = clean.iter().map(|t| t + 3).collect();
        let with_slow = per_index_min(&[jitter.clone(), slow, clean.clone()]);
        let without = per_index_min(&[jitter, clean.clone()]);
        assert_eq!(with_slow, without);
        assert_eq!(with_slow, clean);
        assert_eq!(percentile(&with_slow, 50.0), percentile(&clean, 50.0));
        assert_eq!(percentile(&with_slow, 99.0), percentile(&clean, 99.0));
    }

    #[test]
    #[should_panic(expected = "different numbers of operations")]
    fn ragged_repetitions_are_a_bug() {
        per_index_min(&[vec![1, 2], vec![1]]);
    }
}

//! Greedy event-level scenario minimization.
//!
//! The vendored proptest has no shrinking, so the harness owns it.
//! Because every event is skip-tolerant, any subsequence of a failing
//! scenario's events is itself a valid scenario; the shrinker greedily
//! drops whole events (from the end, so submissions outlive their
//! withdrawals as long as possible) and then thins publish batches,
//! re-checking after each candidate and keeping any that still fails.

use crate::scenario::{Event, Scenario};

/// Shrink a scenario on which `fails` holds, calling it at most `budget`
/// times. Returns the smallest scenario found on which it still holds
/// (the input itself if nothing smaller does). The caller decides what
/// failing means — `cosmos-sim` passes the oracles under the options of
/// the run that failed.
pub fn shrink(
    scenario: &Scenario,
    budget: usize,
    mut fails: impl FnMut(&Scenario) -> bool,
) -> Scenario {
    let mut fails = |c: &Scenario, runs: &mut usize| {
        *runs += 1;
        fails(c)
    };
    let mut runs = 0usize;
    let mut cur = scenario.clone();
    if !fails(&cur, &mut runs) {
        return cur;
    }
    loop {
        let mut changed = false;

        // Pass 1: drop whole events, scanning from the end.
        let mut i = cur.events.len();
        while i > 0 {
            i -= 1;
            if runs >= budget {
                return cur;
            }
            let mut cand = cur.clone();
            cand.events.remove(i);
            if fails(&cand, &mut runs) {
                cur = cand;
                changed = true;
            }
        }

        // Pass 2: thin publish batches — halve large ones, then drop
        // single tuples from small ones.
        let mut i = 0;
        while i < cur.events.len() {
            let n = match &cur.events[i] {
                Event::Publish { tuples } => tuples.len(),
                _ => 0,
            };
            if n >= 2 {
                for range in [(0, n / 2), (n / 2, n)] {
                    if runs >= budget {
                        return cur;
                    }
                    let mut cand = cur.clone();
                    if let Event::Publish { tuples } = &mut cand.events[i] {
                        *tuples = tuples[range.0..range.1].to_vec();
                    }
                    if fails(&cand, &mut runs) {
                        cur = cand;
                        changed = true;
                        break;
                    }
                }
            }
            let n = match &cur.events[i] {
                Event::Publish { tuples } => tuples.len(),
                _ => 0,
            };
            if (2..=16).contains(&n) {
                let mut j = 0;
                while j < n {
                    if runs >= budget {
                        return cur;
                    }
                    let mut cand = cur.clone();
                    if let Event::Publish { tuples } = &mut cand.events[i] {
                        tuples.remove(j);
                    }
                    if fails(&cand, &mut runs) {
                        cur = cand;
                        changed = true;
                        break;
                    }
                    j += 1;
                }
            }
            i += 1;
        }

        if !changed {
            return cur;
        }
    }
}

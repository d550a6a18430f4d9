//! Greedy event-level scenario minimization.
//!
//! The vendored proptest has no shrinking, so the harness owns it.
//! Because every event is skip-tolerant, any subsequence of a failing
//! scenario's events is itself a valid scenario; the shrinker greedily
//! drops whole events (from the end, so submissions outlive their
//! withdrawals as long as possible) and then thins publish batches,
//! re-checking after each candidate and keeping any that still fails.

use crate::oracle::{check_scenario_opts, CheckOptions};
use crate::scenario::{Event, Scenario};

/// Shrink a scenario that fails the oracles `opts` selects, re-running
/// them at most `budget` times. Returns the smallest still-failing
/// scenario found (the input itself if nothing smaller fails).
pub fn shrink(scenario: &Scenario, budget: usize, opts: &CheckOptions) -> Scenario {
    let fails = |c: &Scenario, runs: &mut usize| {
        *runs += 1;
        check_scenario_opts(c, opts).is_err()
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

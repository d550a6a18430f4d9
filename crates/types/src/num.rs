//! Compensated floating-point summation.
//!
//! The determinism contract requires f64 accumulations that feed
//! digests, metrics, or oracles to be insensitive to rounding drift: a
//! plain `f64 +=` loop accumulates low-order residue that depends on
//! evaluation history (window evictions subtract; merged plans change
//! association), so two semantically equal runs can disagree in the
//! last ulps. Kahan–Neumaier summation carries the lost low-order bits
//! in a compensation term, keeping every readout within an ulp or two
//! of the exact sum of the current contributions. The SPE's windowed
//! aggregates hit this first (the testkit sweep caught seeds whose AVG
//! drifted); the `compensated_sums` test of this crate now flags bare
//! accumulations in sink files so new sites reach for this type instead.

/// A Kahan–Neumaier compensated running sum.
///
/// Supports subtraction (pass a negative `x`), so sliding-window
/// retractions stay accurate too.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NeumaierSum {
    sum: f64,
    /// Accumulated low-order bits lost by `sum` updates; the exposed
    /// total is `sum + comp`.
    comp: f64,
}

impl NeumaierSum {
    /// An empty sum.
    pub fn new() -> NeumaierSum {
        NeumaierSum::default()
    }

    /// Compensated `sum += x` (Neumaier's variant, correct whichever of
    /// the addends is larger).
    pub fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.comp += (self.sum - t) + x;
        } else {
            self.comp += (x - t) + self.sum;
        }
        self.sum = t;
    }

    /// The compensated running total.
    pub fn total(&self) -> f64 {
        self.sum + self.comp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compensates_magnitude_disparity() {
        // Classic Neumaier showcase: 1 + 1e100 + 1 - 1e100 = 2 exactly
        // with compensation, 0.0 without.
        let mut s = NeumaierSum::new();
        for x in [1.0, 1e100, 1.0, -1e100] {
            s.add(x);
        }
        assert_eq!(s.total(), 2.0);
    }

    #[test]
    fn insert_then_retract_returns_to_zero_ulps() {
        let mut s = NeumaierSum::new();
        let xs = [0.1, 0.2, 0.3, 1e9, 0.7];
        for x in xs {
            s.add(x);
        }
        for x in xs {
            s.add(-x);
        }
        assert!(s.total().abs() < 1e-9, "residue = {}", s.total());
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(NeumaierSum::default().total(), 0.0);
    }
}

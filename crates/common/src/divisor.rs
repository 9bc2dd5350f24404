//! Division by a divisor fixed at construction, with no hardware divide
//! when the divisor is a power of two.
//!
//! The uncore maps every block address to a bank, a bank-local key, and
//! DRAM coordinates. Each of those is a `/` or `%` by a geometry constant,
//! and a 64-bit divide costs tens of cycles. Every shipped geometry uses
//! powers of two, so [`Divisor`] turns those into a shift and a mask and
//! keeps the exact divide for any other divisor.

/// A positive divisor fixed at construction. [`Self::quotient`] and
/// [`Self::remainder`] equal `x / d` and `x % d` exactly; for a power of two
/// they are a shift and a mask.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Divisor {
    d: u64,
    /// `log2(d)` when `d` is a power of two.
    shift: Option<u32>,
}

impl Divisor {
    /// Wraps `d`.
    ///
    /// # Panics
    /// Panics when `d` is zero.
    pub fn new(d: u64) -> Self {
        assert!(d > 0, "divisor must be positive");
        Divisor {
            d,
            shift: d.is_power_of_two().then(|| d.trailing_zeros()),
        }
    }

    /// The divisor itself.
    #[inline]
    pub fn get(self) -> u64 {
        self.d
    }

    /// `x / d`.
    #[inline]
    pub fn quotient(self, x: u64) -> u64 {
        match self.shift {
            Some(s) => x >> s,
            None => x / self.d,
        }
    }

    /// `x % d`.
    #[inline]
    pub fn remainder(self, x: u64) -> u64 {
        match self.shift {
            Some(_) => x & (self.d - 1),
            None => x % self.d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_hardware_division() {
        let max = u64::MAX;
        let xs = [0u64, 1, 2, 7, 63, 64, 65, 1000, 1 << 41, max - 1, max];
        for d in [1u64, 2, 3, 5, 6, 8, 12, 16, 64, 1 << 40, max] {
            let dv = Divisor::new(d);
            assert_eq!(dv.get(), d);
            for x in xs {
                assert_eq!(dv.quotient(x), x / d, "{x} / {d}");
                assert_eq!(dv.remainder(x), x % d, "{x} % {d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_divisor_panics() {
        let _ = Divisor::new(0);
    }
}

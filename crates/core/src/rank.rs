//! Log-domain activeness rank arithmetic.
//!
//! Eq. (5) of the paper defines the per-type activeness rank as
//! `Φ_λ = Π_{e=1..m} (b_{p_e})^e` and Eq. (6) multiplies the per-type ranks
//! into class ranks `Φ_op`, `Φ_oc`. With a year of 7-day periods (`m = 52`)
//! and an activeness ratio of, say, `b = 50` in the newest period, the
//! newest factor alone is `50^52 ≈ 10^88`; a product over several such
//! periods overflows `f64` (≈ `1.8·10^308`) immediately. The original Python
//! prototype inherits arbitrary-precision floats in some paths; in Rust we
//! instead keep ranks in **log domain**: a [`Rank`] stores `ln Φ`, products
//! become sums, powers become multiplications, and comparisons are exact.
//!
//! `Φ = 0` (a user with zero activity in some period) is represented as
//! `ln Φ = -∞`, and the neutral rank `Φ = 1` (new users, §3.4) as `ln Φ = 0`.
//!
//! Converting back to a linear multiplier — needed by the file-lifetime
//! adjustment `ε_f = d · Φ_op · Φ_oc` (Eq. 7) — saturates at a configurable
//! cap so a hyper-active user cannot acquire an effectively infinite
//! lifetime.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::iter::Product;
use std::ops::Mul;

/// An activeness rank `Φ`, stored as `ln Φ`.
///
/// Invariant: the stored value is never `NaN`. `-∞` encodes `Φ = 0`;
/// `+∞` can arise from extreme products and is preserved (it simply
/// saturates any downstream multiplier).
///
/// ```
/// use activedr_core::rank::Rank;
///
/// // Products that overflow f64 stay exact in log domain:
/// let phi: Rank = (1..=52).map(|e| Rank::from_value(50.0).powi(e)).product();
/// assert!(phi.is_active());
/// assert!(phi > Rank::from_value(1e300));
/// // ...and convert back with saturation for Eq. 7:
/// assert_eq!(phi.multiplier(0.0, 1e6), 1e6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Rank(f64);

impl Rank {
    /// The neutral rank `Φ = 1` — assigned to brand-new users and to users
    /// with no recorded activity of a type (§3.4: "we set the initial user
    /// activeness rank of all activity types to be 1.0").
    pub const NEUTRAL: Rank = Rank(0.0);

    /// The zero rank `Φ = 0` (completely inactive in at least one period).
    pub const ZERO: Rank = Rank(f64::NEG_INFINITY);

    /// Build a rank from a linear value `Φ ≥ 0`.
    ///
    /// # Panics
    /// Panics if `phi` is negative or NaN.
    pub fn from_value(phi: f64) -> Rank {
        assert!(
            phi >= 0.0 && !phi.is_nan(),
            "rank value must be >= 0, got {phi}"
        );
        Rank(phi.ln())
    }

    /// Build a rank directly from `ln Φ`.
    ///
    /// # Panics
    /// Panics if `ln_phi` is NaN.
    pub fn from_ln(ln_phi: f64) -> Rank {
        assert!(!ln_phi.is_nan(), "ln(rank) must not be NaN");
        Rank(ln_phi)
    }

    /// `ln Φ`.
    pub fn ln(self) -> f64 {
        self.0
    }

    /// Linear `Φ`, saturating to `f64::INFINITY`/`0.0` at the extremes.
    pub fn value(self) -> f64 {
        self.0.exp()
    }

    /// Is the user *active* under this rank (`Φ ≥ 1`, i.e. `ln Φ ≥ 0`)?
    /// The paper's activity threshold at the end of §3.2.
    pub fn is_active(self) -> bool {
        self.0 >= 0.0
    }

    /// Is this the zero rank (`Φ = 0`, no in-window activity)?
    pub fn is_zero(self) -> bool {
        crate::approx::is_neg_infinity(self.0)
    }

    /// `Φ^k` — used for the per-period exponentiation `(b_{p_e})^e`.
    pub fn powi(self, k: u32) -> Rank {
        if k == 0 {
            return Rank::NEUTRAL;
        }
        // -inf * positive stays -inf; 0 * anything handled above.
        Rank(self.0 * f64::from(k))
    }

    /// The linear multiplier for Eq. (7), clamped into `[floor, cap]`.
    ///
    /// A cap keeps adjusted lifetimes finite; a floor (usually 0) lets the
    /// retention loop still shrink lifetimes of inactive users. The
    /// retrospective scan (§3.4) decays ranks below 1, so the floor only
    /// protects against `Φ = 0` wiping a group's lifetime to zero in the
    /// *first* pass when that is not desired — the paper purges such files
    /// on scan, so the default floor is 0.
    pub fn multiplier(self, floor: f64, cap: f64) -> f64 {
        debug_assert!(floor >= 0.0 && cap >= floor);
        self.value().clamp(floor, cap)
    }

    /// Decay this rank by a fraction, i.e. `Φ ← Φ·(1−fraction)` — the
    /// retrospective-scan rank reduction (§3.4, 20% per extra pass).
    ///
    /// # Panics
    /// Panics unless `0 ≤ fraction < 1`.
    pub fn decay(self, fraction: f64) -> Rank {
        assert!(
            (0.0..1.0).contains(&fraction),
            "decay fraction must be in [0,1)"
        );
        if self.is_zero() {
            return self;
        }
        Rank(self.0 + (1.0 - fraction).ln())
    }

    /// Total order: ranks compare by `Φ` (equivalently by `ln Φ`). Never
    /// NaN by invariant, so this is total.
    pub fn total_cmp(self, other: Rank) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Default for Rank {
    fn default() -> Self {
        Rank::NEUTRAL
    }
}

impl Mul for Rank {
    type Output = Rank;
    fn mul(self, rhs: Rank) -> Rank {
        // ln(a·b) = ln a + ln b. -inf + inf would be NaN: a zero rank times
        // an infinite rank. Resolve in favour of zero (one dead period kills
        // the product, matching Π semantics where the 0 factor dominates).
        if self.is_zero() || rhs.is_zero() {
            return Rank::ZERO;
        }
        Rank(self.0 + rhs.0)
    }
}

impl Product for Rank {
    fn product<I: Iterator<Item = Rank>>(iter: I) -> Rank {
        iter.fold(Rank::NEUTRAL, Mul::mul)
    }
}

impl PartialOrd for Rank {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.total_cmp(*other))
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            write!(f, "0")
        } else if self.0.abs() < 500.0 {
            let v = self.value();
            if (0.001..1e6).contains(&v) {
                write!(f, "{v:.4}")
            } else {
                write!(f, "{v:.3e}")
            }
        } else {
            write!(f, "exp({:.1})", self.0)
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests assert exact values produced by exact arithmetic"
)]
mod tests {
    use super::*;

    #[test]
    fn neutral_and_zero_basics() {
        assert!(Rank::NEUTRAL.is_active());
        assert!(!Rank::ZERO.is_active());
        assert!(Rank::ZERO.is_zero());
        assert_eq!(Rank::NEUTRAL.value(), 1.0);
        assert_eq!(Rank::ZERO.value(), 0.0);
        assert_eq!(Rank::default(), Rank::NEUTRAL);
    }

    #[test]
    fn from_value_round_trips() {
        for v in [0.0, 0.25, 1.0, 7.5, 1e10] {
            let r = Rank::from_value(v);
            assert!((r.value() - v).abs() <= v * 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "must be >= 0")]
    fn negative_value_rejected() {
        Rank::from_value(-1.0);
    }

    #[test]
    fn product_matches_linear_domain() {
        let a = Rank::from_value(2.0);
        let b = Rank::from_value(3.0);
        assert!(((a * b).value() - 6.0).abs() < 1e-12);
        let p: Rank = [a, b, Rank::from_value(0.5)].into_iter().product();
        assert!((p.value() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_annihilates_product() {
        let huge = Rank::from_ln(1e300); // effectively Φ = +inf
        assert!(Rank::ZERO * huge == Rank::ZERO);
        assert!(huge * Rank::ZERO == Rank::ZERO);
    }

    #[test]
    fn powi_matches_linear_domain() {
        let b = Rank::from_value(1.5);
        assert!((b.powi(4).value() - 1.5f64.powi(4)).abs() < 1e-12);
        assert_eq!(Rank::from_value(5.0).powi(0), Rank::NEUTRAL);
        assert!(Rank::ZERO.powi(3).is_zero());
    }

    #[test]
    fn no_overflow_for_paper_scale_products() {
        // 50^200 (ln ≈ 782) overflows f64's ~1.8e308 ceiling; in log domain
        // the rank stays finite and comparable.
        let b = Rank::from_value(50.0);
        let phi = b.powi(200);
        assert!(phi.ln().is_finite());
        assert!(phi.is_active());
        assert!(phi > b.powi(199)); // comparisons still exact
        assert_eq!(phi.value(), f64::INFINITY); // saturates only on readback
        assert_eq!(phi.multiplier(0.0, 100.0), 100.0);
    }

    #[test]
    fn decay_reduces_by_fraction() {
        let r = Rank::from_value(10.0);
        let d = r.decay(0.2);
        assert!((d.value() - 8.0).abs() < 1e-12);
        // Five passes of 20% ≈ 0.8^5.
        let five = (0..5).fold(r, |acc, _| acc.decay(0.2));
        assert!((five.value() - 10.0 * 0.8f64.powi(5)).abs() < 1e-9);
        assert!(Rank::ZERO.decay(0.2).is_zero());
    }

    #[test]
    #[should_panic(expected = "decay fraction")]
    fn decay_rejects_one() {
        Rank::NEUTRAL.decay(1.0);
    }

    #[test]
    fn multiplier_clamps() {
        assert_eq!(Rank::from_value(4.0).multiplier(0.0, 2.0), 2.0);
        assert_eq!(Rank::from_value(0.25).multiplier(0.5, 2.0), 0.5);
        assert_eq!(Rank::ZERO.multiplier(0.0, 2.0), 0.0);
    }

    #[test]
    fn ordering_is_total_and_matches_values() {
        let mut v = [
            Rank::from_value(3.0),
            Rank::ZERO,
            Rank::NEUTRAL,
            Rank::from_value(0.5),
        ];
        v.sort_by(|a, b| a.total_cmp(*b));
        let vals: Vec<f64> = v.iter().map(|r| r.value()).collect();
        let expected = [0.0, 0.5, 1.0, 3.0];
        for (got, want) in vals.iter().zip(expected) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Rank::ZERO.to_string(), "0");
        assert_eq!(Rank::NEUTRAL.to_string(), "1.0000");
        assert_eq!(Rank::from_ln(1000.0).to_string(), "exp(1000.0)");
    }
}

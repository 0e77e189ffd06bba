//! The plain bisection, which evaluates `f` at every midpoint: the
//! oracle the monotone [`bisect`](crate::solve::bisect) must match bit
//! for bit. Test code only; the FEU's tests compile this file too.

use super::BisectResult;

/// Plain bisection on `[lo, hi]`, with the contract of the monotone
/// one.
pub fn bisect<F: FnMut(f64) -> f64>(
    mut f: F,
    lo: f64,
    hi: f64,
    xtol: f64,
    max_iter: u32,
) -> BisectResult {
    assert!(
        lo.is_finite() && hi.is_finite() && lo < hi,
        "bisect: bad interval [{lo}, {hi}]"
    );
    let mut a = lo;
    let mut b = hi;
    let mut fa = f(a);
    let fb = f(b);
    if fa == 0.0 {
        return BisectResult::Converged(a);
    }
    if fb == 0.0 {
        return BisectResult::Converged(b);
    }
    if fa.signum() == fb.signum() {
        return BisectResult::NoSignChange(if fa.abs() <= fb.abs() { a } else { b });
    }
    for _ in 0..max_iter {
        let mid = 0.5 * (a + b);
        if b - a < xtol {
            return BisectResult::Converged(mid);
        }
        let fm = f(mid);
        if fm == 0.0 {
            return BisectResult::Converged(mid);
        }
        if fm.signum() == fa.signum() {
            a = mid;
            fa = fm;
        } else {
            b = mid;
        }
    }
    BisectResult::Converged(0.5 * (a + b))
}

//! Scalar root finding.
//!
//! The link layer's Fidelity Estimation Unit (paper §5.2.3) must translate
//! a requested minimum fidelity `Fmin` into hardware generation parameters
//! — concretely, the bright-state population `α`, because the produced
//! fidelity behaves like `F ≈ 1 − α` (plus additional noise). That
//! inversion is a one-dimensional root find on a function whose sign
//! changes once, which bisection solves robustly without derivatives.
//! Each evaluation there is an attempt model, so [`bisect`] returns
//! bisection's answer from the few evaluations secant steps need on a
//! smooth function.

/// Result of a bisection search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BisectResult {
    /// A root was bracketed and refined to the requested tolerance.
    Converged(f64),
    /// `f` has the same sign at both ends of the interval; the endpoint
    /// with the smaller `|f|` is reported.
    NoSignChange(f64),
}

impl BisectResult {
    /// The located abscissa, regardless of convergence status.
    pub fn value(self) -> f64 {
        match self {
            BisectResult::Converged(x) | BisectResult::NoSignChange(x) => x,
        }
    }

    /// `true` when a sign change was found and refined.
    pub fn converged(self) -> bool {
        matches!(self, BisectResult::Converged(_))
    }
}

/// Most Illinois steps [`bisect`] takes before it replays the
/// midpoints; each one costs an evaluation of `f`. Six bracket the FEU's
/// root within its last bisection level from the α range's ends.
const ILLINOIS_STEPS: u32 = 6;

/// Finds `x ∈ [lo, hi]` with `f(x) ≈ 0` by bisection, for an `f` whose
/// sign is monotone on `[lo, hi]` (one sign, any zeros, then the other),
/// as a monotone `f`'s is.
///
/// Requires `lo < hi`. Runs until the bracket is narrower than `xtol` or
/// `max_iter` iterations elapse. If `f(lo)` and `f(hi)` have the same
/// sign, returns [`BisectResult::NoSignChange`] with the better endpoint
/// (callers such as the FEU use this to mean "requested fidelity is out
/// of range — clamp to the achievable extreme").
///
/// The answer is plain bisection's, bit for bit, from fewer evaluations
/// of a smooth `f`. A few Illinois (regula falsi) steps first narrow a
/// bracket `[p, q]`: `f` has the sign of `f(lo)` up to `p` and that of
/// `f(hi)` from `q` on. Bisection's midpoint sequence is then replayed,
/// evaluating `f` only at midpoints strictly inside `[p, q]` and taking
/// every other midpoint's sign from the bracket: a sign is all bisection
/// reads from `f(mid)`. Where secant steps close in no faster than
/// halving (strong curvature, a step, a root where `f` is flat, or an
/// exact zero plain bisection meets on an early midpoint), they cost at
/// most their number, plus two around an exact zero they land on.
///
/// # Panics
/// Panics if `lo >= hi` or either bound is non-finite.
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
    let flo = f(lo);
    let fhi = f(hi);
    if flo == 0.0 {
        return BisectResult::Converged(lo);
    }
    if fhi == 0.0 {
        return BisectResult::Converged(hi);
    }
    if flo.signum() == fhi.signum() {
        return BisectResult::NoSignChange(if flo.abs() <= fhi.abs() { lo } else { hi });
    }
    // Illinois steps pay only in midpoints they let the replay skip: take
    // them when bisection has over twice as many to evaluate. `width`
    // ends as the last level's interval.
    let mut levels = 0;
    let mut width = hi - lo;
    while levels < max_iter && width >= xtol {
        levels += 1;
        width *= 0.5;
    }
    let steps = if levels > 2 * ILLINOIS_STEPS {
        ILLINOIS_STEPS
    } else {
        0
    };
    // The bracket, and the Illinois weights at its ends: an end kept
    // twice in a row has its weight halved.
    let (mut p, mut wp, mut q, mut wq) = (lo, flo, hi, fhi);
    let mut moved_low = None;
    for _ in 0..steps {
        if q - p < xtol {
            break;
        }
        let x = q - wq * (q - p) / (wq - wp);
        if !(p < x && x < q) {
            break;
        }
        let fx = f(x);
        if fx == 0.0 {
            // An exact root: bracket it one level's interval either
            // side, unless `f` is zero there too.
            if p < x - width && f(x - width) != 0.0 {
                p = x - width;
            }
            if x + width < q && f(x + width) != 0.0 {
                q = x + width;
            }
            break;
        }
        let low = fx.signum() == flo.signum();
        if low {
            (p, wp) = (x, fx);
        } else {
            (q, wq) = (x, fx);
        }
        if moved_low == Some(low) {
            if low {
                wq *= 0.5;
            } else {
                wp *= 0.5;
            }
        }
        moved_low = Some(low);
    }
    let mut a = lo;
    let mut b = hi;
    for _ in 0..max_iter {
        let mid = 0.5 * (a + b);
        if b - a < xtol {
            return BisectResult::Converged(mid);
        }
        let low = if mid <= p {
            true
        } else if mid >= q {
            false
        } else {
            let fm = f(mid);
            if fm == 0.0 {
                return BisectResult::Converged(mid);
            }
            fm.signum() == flo.signum()
        };
        if low {
            a = mid;
        } else {
            b = mid;
        }
    }
    BisectResult::Converged(0.5 * (a + b))
}

#[cfg(test)]
mod plain;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_sqrt_two() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12, 200);
        assert!(r.converged());
        assert!((r.value() - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn root_at_endpoint() {
        let r = bisect(|x| x, 0.0, 1.0, 1e-12, 100);
        assert!(r.converged());
        assert_eq!(r.value(), 0.0);
    }

    #[test]
    fn no_sign_change_reports_best_endpoint() {
        // f > 0 everywhere on [1, 2]; closer endpoint is 1.
        let r = bisect(|x| x * x + 1.0, 1.0, 2.0, 1e-12, 100);
        assert!(!r.converged());
        assert_eq!(r.value(), 1.0);
    }

    #[test]
    fn decreasing_function() {
        // F(α) ≈ 1 − α inversion shape: decreasing in α.
        let target = 0.64;
        let r = bisect(|a| (1.0 - a) - target, 0.0, 0.5, 1e-12, 200);
        assert!(r.converged());
        assert!((r.value() - 0.36).abs() < 1e-9);
    }

    /// The FEU's α range.
    const LO: f64 = 0.01;
    const HI: f64 = 0.5;

    /// Runs the monotone bisection and the plain oracle on `f` over
    /// `[LO, HI]`, checks that both give the same variant and the same
    /// value bits, and returns how often each evaluated `f`.
    fn evaluations(f: impl Fn(f64) -> f64, xtol: f64, max_iter: u32) -> (u32, u32) {
        let (mut fast, mut slow) = (0, 0);
        let got = bisect(
            |x| {
                fast += 1;
                f(x)
            },
            LO,
            HI,
            xtol,
            max_iter,
        );
        let want = plain::bisect(
            |x| {
                slow += 1;
                f(x)
            },
            LO,
            HI,
            xtol,
            max_iter,
        );
        assert_eq!(got.converged(), want.converged(), "{got:?} vs {want:?}");
        assert_eq!(
            got.value().to_bits(),
            want.value().to_bits(),
            "{got:?} vs {want:?}"
        );
        (fast, slow)
    }

    /// Tolerances and iteration caps: converging to 1e-4 (the FEU's),
    /// to 1e-12, and stopped after 0–5 midpoints.
    const LIMITS: [(f64, u32); 8] = [
        (1e-4, 60),
        (1e-12, 200),
        (1e-4, 0),
        (1e-4, 1),
        (1e-4, 2),
        (1e-4, 3),
        (1e-4, 5),
        (1e-12, 5),
    ];

    #[test]
    fn a_monotone_bisection_matches_the_plain_one_at_fewer_evaluations() {
        type Shape = fn(f64) -> f64;
        let shapes: [(&str, Shape); 10] = [
            ("increasing", |x| x * x * x - 0.03),
            ("decreasing", |x| (-3.0 * x).exp() - 0.5),
            ("linear", |x| (1.0 - x) - 0.72),
            ("root at lo", |x| x - LO),
            ("root at hi", |x| HI - x),
            ("no sign change, above", |x| x + 1.0),
            ("no sign change, below", |x| -x - 1.0),
            ("steep", |x| 1e6 * (x - 0.2)),
            ("steep, saturating", |x| (100.0 * (x - 0.2)).atan()),
            ("near-flat", |x| 1e-9 * (0.321 - x)),
        ];
        for (name, f) in shapes {
            for (xtol, max_iter) in LIMITS {
                let (fast, slow) = evaluations(f, xtol, max_iter);
                assert!(
                    fast <= slow,
                    "{name}, xtol {xtol}, max_iter {max_iter}: {fast} evaluations, plain {slow}"
                );
            }
        }
        // The FEU's shape, F ≈ 1 − α, at its tolerance: the first secant
        // step lands on the root, and 7 evaluations do the work of 15.
        assert_eq!(evaluations(|x| (1.0 - x) - 0.72, 1e-4, 60), (7, 15));
    }

    /// The `depth`-th midpoint plain bisection evaluates on `[LO, HI]`
    /// when bit `i` of `path` says whether level `i` keeps the upper half.
    fn midpoint(depth: u32, path: u32) -> f64 {
        let (mut a, mut b) = (LO, HI);
        for i in 0..depth - 1 {
            let mid = 0.5 * (a + b);
            if path >> i & 1 == 1 {
                a = mid;
            } else {
                b = mid;
            }
        }
        0.5 * (a + b)
    }

    /// Where secant steps close in no faster than halving, they cost at
    /// most their number, plus the two that bracket an exact zero they
    /// land on; the answers still match bit for bit. So it is with strong
    /// curvature over the interval, a root where `f` is flat, a step, and
    /// an exact zero on a midpoint, where plain bisection stops early (a
    /// root exactly on one, or a flat zero plateau).
    #[test]
    fn where_secants_do_not_pay_they_cost_at_most_their_number() {
        let mut shapes: Vec<Box<dyn Fn(f64) -> f64>> = vec![
            Box::new(|x| (50.0 * (x - 0.3)).sinh()),
            Box::new(|x| (40.0 * x).exp() - 1e4),
            Box::new(|x| (x - 0.4).powi(5)),
            Box::new(|x| (1e4 * (x - 0.123)).tanh()),
        ];
        for (lo, hi) in [(0.2, 0.3), (0.4, 0.4 + 1e-6), (0.01, 0.02)] {
            shapes.push(Box::new(move |x| (x - hi).max(0.0) + (x - lo).min(0.0)));
        }
        for depth in 1..=14 {
            for path in [0, u32::MAX, 0b0101_0101_0101_0101, 0b1100_1010_0111] {
                let m = midpoint(depth, path);
                shapes.push(Box::new(move |x| x - m));
                shapes.push(Box::new(move |x| (m - x).powi(3)));
            }
        }
        for f in &shapes {
            for (xtol, max_iter) in LIMITS {
                let (fast, slow) = evaluations(f, xtol, max_iter);
                assert!(fast <= slow + ILLINOIS_STEPS + 2, "{fast} vs {slow}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bad interval")]
    fn inverted_interval_panics() {
        bisect(|x| x, 1.0, 0.0, 1e-12, 10);
    }
}

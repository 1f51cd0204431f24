//! Order statistics for the benchmark's reported timings.
//!
//! A tail percentile is reported only when the sample supports it: at
//! least [`MIN_BEYOND`] samples must lie beyond it, so p90 needs 100
//! samples. Quartiles follow Python's `statistics.quantiles(xs, n=4)`
//! (the default `exclusive` method), which is how run-to-run spreads of
//! this benchmark are judged.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median; the mean of the middle pair for an even count. `None` when
/// empty.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `q` (0 < q ≤ 1) if at least [`MIN_BEYOND`]
/// samples lie beyond its rank, else `None`.
#[must_use]
pub fn supported_percentile(xs: &[f64], q: f64) -> Option<f64> {
    let n = xs.len();
    let rank = nearest_rank(n, q)?;
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

/// The highest percentile (as a fraction) that `n` samples support:
/// `(n − MIN_BEYOND) / n`, or `None` when `n ≤ MIN_BEYOND`.
#[must_use]
pub fn highest_supported(n: usize) -> Option<f64> {
    (n > MIN_BEYOND).then(|| (n - MIN_BEYOND) as f64 / n as f64)
}

/// 1-based nearest rank `⌈q·n⌉` of percentile `q`, clamped to `1..=n`.
fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let rank = (q * n as f64 - 1e-9).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// First quartile, median and third quartile, exactly as Python's
/// `statistics.quantiles(xs, n=4)` computes them. `None` for fewer than
/// two samples.
#[must_use]
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Signed: after clamping, Python extrapolates with a negative
        // or >4 delta at the ends of tiny samples.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median (the spread the
/// benchmark's bounds are judged against). `None` for fewer than two
/// samples or a zero median.
#[must_use]
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

//! Order statistics over timing samples.

/// The `q`-quantile of `xs` (0 ≤ q ≤ 1), interpolated linearly between
/// order statistics; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Windows of [`windowed_quantile`].
const WINDOWS: usize = 4;

/// The median, over four consecutive equal windows of `xs` in arrival
/// order, of each window's `q`-quantile: a tail estimate that one slow
/// stretch of a run (a noisy neighbour, say) cannot move alone.
pub fn windowed_quantile(xs: &[f64], q: f64) -> f64 {
    let n = xs.len();
    let tails: Vec<f64> = (0..WINDOWS)
        .map(|w| &xs[w * n / WINDOWS..(w + 1) * n / WINDOWS])
        .filter(|window| !window.is_empty())
        .map(|window| quantile(window, q))
        .collect();
    median(&tails)
}

/// Mean of `xs`; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn one_slow_window_does_not_move_the_tail() {
        let mut xs = vec![1.0; 400];
        for i in 0..5 {
            xs[10 * i] = 50.0;
        }
        assert_eq!(windowed_quantile(&xs, 0.99), 1.0);
        assert!(quantile(&xs, 0.99) > 1.0);
    }
}

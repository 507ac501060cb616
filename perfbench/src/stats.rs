//! Order statistics over exact samples.

/// The `q`-quantile (nearest rank) of `v`, sorting it; `None` when empty.
pub fn quantile<T: Copy + PartialOrd>(v: &mut [T], q: f64) -> Option<T> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("comparable"));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// The median of `v` (mean of the middle two for even lengths).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("comparable"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// p50 and p99 of latency samples in ns, as milliseconds: each is the
/// median over the first `n` slices of that slice's quantile, so one
/// disturbed slice cannot move the figure.
pub fn lat_ms(mut slices: Vec<Vec<u32>>, n: usize) -> (f64, f64) {
    slices.resize_with(n, Vec::new);
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for s in slices.iter_mut().take(n).filter(|s| !s.is_empty()) {
        p50.push(quantile(s, 0.5).unwrap_or(0) as f64 / 1e6);
        p99.push(quantile(s, 0.99).unwrap_or(0) as f64 / 1e6);
    }
    (median(&p50), median(&p99))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50));
        assert_eq!(quantile(&mut v, 0.99), Some(99));
        assert_eq!(quantile(&mut v, 1.0), Some(100));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}

//! Descriptive statistics: ranks, rank correlation, quantiles, and text
//! histograms — the reporting toolkit the experiment binaries share.

/// Fractional ranks (average rank for ties), 1-based as in R's `rank()`.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).unwrap());
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        // Average rank for the tie group [i, j].
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Pearson correlation coefficient; `None` when either input is constant
/// or lengths differ/are short.
fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (a, b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Spearman rank correlation: Pearson over fractional ranks. Measures
/// monotone association — exactly the "ranks configurations correctly"
/// property the paper's linear models target.
pub fn spearman(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    pearson(&ranks(x), &ranks(y))
}

/// The `q`-quantile (0..=1) by linear interpolation over sorted data;
/// `None` for empty input.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(v[lo] * (1.0 - frac) + v[hi] * frac)
}

/// A fixed-width text histogram with `bins` buckets over the data range.
pub fn histogram(xs: &[f64], bins: usize, width: usize) -> String {
    if xs.is_empty() || bins == 0 {
        return String::new();
    }
    let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-300);
    let mut counts = vec![0usize; bins];
    for &x in xs {
        let b = (((x - min) / span) * bins as f64) as usize;
        counts[b.min(bins - 1)] += 1;
    }
    let peak = *counts.iter().max().unwrap() as f64;
    let mut out = String::new();
    for (i, &c) in counts.iter().enumerate() {
        let lo = min + span * i as f64 / bins as f64;
        let hi = min + span * (i + 1) as f64 / bins as f64;
        let bar = "#".repeat(((c as f64 / peak) * width as f64).round() as usize);
        out.push_str(&format!("[{lo:>9.3}, {hi:>9.3}) |{bar:<width$}| {c}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_handle_ties() {
        assert_eq!(ranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
        assert_eq!(ranks(&[3.0, 1.0, 2.0]), vec![3.0, 1.0, 2.0]);
        assert_eq!(ranks(&[]), Vec::<f64>::new());
        assert_eq!(ranks(&[5.0, 5.0, 5.0]), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn pearson_known_values() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v - 1.0).collect();
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let z: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!((pearson(&x, &z).unwrap() + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&x, &[1.0, 1.0, 1.0, 1.0]), None);
        assert_eq!(pearson(&x, &[1.0]), None);
    }

    #[test]
    fn spearman_tracks_monotone_not_linear() {
        let x: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];
        // y = exp(x): nonlinear but perfectly monotone.
        let y: Vec<f64> = x.iter().map(|v| v.exp()).collect();
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let rev: Vec<f64> = x.iter().rev().cloned().collect();
        assert!((spearman(&x, &rev).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 0.5), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn histogram_renders() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        let h = histogram(&xs, 5, 20);
        assert_eq!(h.lines().count(), 5);
        assert!(h.contains('#'));
        assert_eq!(histogram(&[], 5, 20), "");
    }
}

//! Statistics collection: ratios, running summaries and the series
//! statistics (correlation, geomean, relative error) the figures report.

/// A hit/total style ratio counter (cache hit rates, row-buffer hit rates…).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ratio {
    /// Numerator (e.g. hits).
    pub num: u64,
    /// Denominator (e.g. total accesses).
    pub den: u64,
}

impl Ratio {
    /// Adds one event, hitting or missing.
    pub fn record(&mut self, hit: bool) {
        self.den += 1;
        if hit {
            self.num += 1;
        }
    }

    /// The ratio value, or 0 when no events were recorded.
    pub fn value(&self) -> f64 {
        if self.den == 0 {
            0.0
        } else {
            self.num as f64 / self.den as f64
        }
    }

    /// Merges another ratio's counts into this one.
    pub fn merge(&mut self, other: &Ratio) {
        self.num += other.num;
        self.den += other.den;
    }

    /// Walks both counts for a snapshot.
    pub fn walk(&mut self, w: &mut impl crate::snap::Walk) -> Result<(), crate::snap::SnapError> {
        w.u64(&mut self.num)?;
        w.u64(&mut self.den)
    }
}

/// Streaming min/max/mean/count summary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample.
    pub fn add(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Minimum sample, or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum sample, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Reconstructs a summary from previously-exported parts. `min`/`max` are
    /// ignored when `count == 0`.
    pub fn from_parts(count: u64, sum: f64, min: f64, max: f64) -> Self {
        if count == 0 {
            Self::default()
        } else {
            Self {
                count,
                sum,
                min,
                max,
            }
        }
    }

    /// Merges another summary's samples into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Pearson correlation coefficient of paired samples, or `None` when either
/// series is constant or the lengths differ / are < 2.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Geometric mean of positive values; returns `None` if empty or any value
/// is non-positive.
pub fn geomean(vals: &[f64]) -> Option<f64> {
    if vals.is_empty() || vals.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = vals.iter().map(|v| v.ln()).sum();
    Some((log_sum / vals.len() as f64).exp())
}

/// Mean absolute relative error `|a-b|/|a|` between a reference series `a`
/// and a measured series `b` (the paper's §3.4 accuracy metric).
pub fn mean_abs_rel_error(reference: &[f64], measured: &[f64]) -> Option<f64> {
    if reference.len() != measured.len() || reference.is_empty() {
        return None;
    }
    let mut acc = 0.0;
    for (&a, &b) in reference.iter().zip(measured) {
        if a == 0.0 {
            return None;
        }
        acc += ((a - b) / a).abs();
    }
    Some(acc / reference.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_value_and_merge() {
        let mut r = Ratio::default();
        assert_eq!(r.value(), 0.0);
        r.record(true);
        r.record(false);
        r.record(true);
        assert!((r.value() - 2.0 / 3.0).abs() < 1e-12);
        let mut r2 = Ratio { num: 1, den: 1 };
        r2.merge(&r);
        assert_eq!(r2.num, 3);
        assert_eq!(r2.den, 4);
    }

    #[test]
    fn summary_tracks_extremes() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        for v in [3.0, -1.0, 10.0] {
            s.add(v);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), -1.0);
        assert_eq!(s.max(), 10.0);
        assert!((s.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let inv = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &inv).unwrap() + 1.0).abs() < 1e-12);
        assert!(pearson(&xs, &[1.0, 1.0, 1.0, 1.0]).is_none());
        assert!(pearson(&xs, &ys[..3]).is_none());
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_none());
        assert!(geomean(&[1.0, 0.0]).is_none());
    }

    #[test]
    fn rel_error_metric() {
        let e = mean_abs_rel_error(&[10.0, 20.0], &[9.0, 22.0]).unwrap();
        assert!((e - 0.1).abs() < 1e-12);
        assert!(mean_abs_rel_error(&[0.0], &[1.0]).is_none());
        assert!(mean_abs_rel_error(&[1.0], &[1.0, 2.0]).is_none());
    }
}

//! Order statistics over measured samples.

/// A bag of samples (milliseconds, ratios, counts) with quantiles.
#[derive(Clone, Debug, Default)]
pub struct Dist {
    xs: Vec<f64>,
    sorted: bool,
}

impl Dist {
    /// An empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.xs.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.xs.iter().sum()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.xs.is_empty() {
            0.0
        } else {
            self.sum() / self.xs.len() as f64
        }
    }

    /// Quantile `q` in `0..=1` by linear interpolation between order
    /// statistics (0 when empty).
    pub fn quantile(&mut self, q: f64) -> f64 {
        if !self.sorted {
            self.xs.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        quantile_sorted(&self.xs, q)
    }

    /// The median.
    pub fn p50(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// The 99th percentile.
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }
}

/// The fastest time of each distinct piece of work a run repeats.
///
/// The host this benchmark runs on changes speed in phases of a few
/// seconds: identical work reads up to half again slower in a slow
/// phase, and a whole run's median moves with the phases it happened
/// to meet. A run repeats each piece of work (a closed-loop input ×
/// mapper pair, a served request graph, a slot of the failure cycle)
/// across the run, so the fastest repeat is its time in the run's
/// quickest phase, which is what repeats from run to run.
#[derive(Clone, Debug, Default)]
pub struct Best {
    xs: Vec<f64>,
}

impl Best {
    /// No work timed yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one time `x` of work `key`.
    pub fn push(&mut self, key: usize, x: f64) {
        if self.xs.len() <= key {
            self.xs.resize(key + 1, f64::INFINITY);
        }
        self.xs[key] = self.xs[key].min(x);
    }

    /// The fastest time of every piece of work timed at least once.
    pub fn dist(&self) -> Dist {
        let mut d = Dist::new();
        self.xs
            .iter()
            .filter(|x| x.is_finite())
            .for_each(|&x| d.push(x));
        d
    }
}

/// Quantile of an ascending slice by linear interpolation.
pub fn quantile_sorted(xs: &[f64], q: f64) -> f64 {
    match xs.len() {
        0 => 0.0,
        1 => xs[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
        }
    }
}

/// Geometric mean of positive values (0 when empty).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Median of a few set-up timings.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    quantile_sorted(&xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut d = Dist::new();
        for x in [4.0, 1.0, 3.0, 2.0] {
            d.push(x);
        }
        assert_eq!(d.p50(), 2.5);
        assert_eq!(d.quantile(0.0), 1.0);
        assert_eq!(d.quantile(1.0), 4.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn best_keeps_each_keys_fastest() {
        let mut b = Best::new();
        for (k, x) in [(2, 5.0), (0, 3.0), (2, 4.0), (0, 6.0)] {
            b.push(k, x);
        }
        let mut d = b.dist();
        assert_eq!(d.len(), 2);
        assert_eq!((d.quantile(0.0), d.quantile(1.0)), (3.0, 4.0));
    }
}

//! Order statistics and the daemon's Prometheus text page.

use std::collections::BTreeMap;

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Summary of one timing distribution: median, tail and sample count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dist {
    pub n: usize,
    pub p50: f64,
    /// The 99th percentile, or `None` when fewer than ten samples lie
    /// beyond it.
    pub p99: Option<f64>,
    pub mean: f64,
    pub max: f64,
}

impl Dist {
    pub fn of(samples: &[f64]) -> Dist {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 0 {
            return Dist::default();
        }
        let p99_rank = ((n as f64 * 0.99).ceil() as usize).clamp(1, n);
        Dist {
            n,
            p50: percentile(&sorted, 0.5),
            p99: (n - p99_rank >= 10).then(|| sorted[p99_rank - 1]),
            mean: sorted.iter().sum::<f64>() / n as f64,
            max: sorted[n - 1],
        }
    }

    /// `p50 / p99 (n)` for the human-readable tables.
    pub fn describe(&self, unit: &str) -> String {
        let p99 = self.p99.map_or("n/a".to_string(), |v| format!("{v:.1}"));
        format!(
            "p50 {:.1} {unit}  p99 {p99} {unit}  mean {:.1} {unit}  max {:.1} {unit}  (n={})",
            self.p50, self.mean, self.max, self.n
        )
    }
}

/// Quartiles (q1, median, q3) with the same interpolation as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        len => {
            let m = len as i64 + 1;
            let at = |i: i64| {
                let j = (i * m / 4).clamp(1, len as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (at(1), at(2), at(3))
        }
    }
}

/// One scrape of `GET /metrics`: sample key (name plus label set, as
/// rendered) → value.
#[derive(Debug, Clone, Default)]
pub struct Scrape(pub BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut samples = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            if let Some((key, value)) = line.rsplit_once(' ') {
                if let Ok(value) = value.trim().parse::<f64>() {
                    samples.insert(key.to_string(), value);
                }
            }
        }
        Scrape(samples)
    }

    /// `self − before` for every key of `self` (keys absent before
    /// count from zero).
    pub fn delta(&self, before: &Scrape) -> Scrape {
        Scrape(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.0.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Sum and count of a histogram sample set, e.g.
    /// `hist("p3p_http_request_us", "endpoint=\"match\"")`; an empty
    /// label selector sums every label set of the family.
    pub fn hist(&self, family: &str, labels: &str) -> (f64, f64) {
        let mut sum = 0.0;
        let mut count = 0.0;
        for (key, value) in &self.0 {
            let Some(rest) = key.strip_prefix(family) else {
                continue;
            };
            let Some(inner) = rest.strip_prefix('{').and_then(|r| r.strip_suffix('}')) else {
                continue;
            };
            // The `stat` label is rendered last, after the family's own.
            let stat = if labels.is_empty() {
                Some(inner.rsplit(',').next().unwrap_or(inner))
            } else {
                inner.strip_prefix(labels).and_then(|r| r.strip_prefix(','))
            };
            match stat {
                Some("stat=\"sum\"") => sum += value,
                Some("stat=\"count\"") => count += value,
                _ => {}
            }
        }
        (sum, count)
    }

    /// Every distinct label set (without the `stat` label) observed for
    /// a histogram family.
    pub fn hist_label_sets(&self, family: &str) -> Vec<String> {
        let mut sets: Vec<String> = self
            .0
            .keys()
            .filter_map(|key| key.strip_prefix(family)?.strip_prefix('{'))
            .filter_map(|inner| inner.strip_suffix(",stat=\"count\"}"))
            .map(str::to_string)
            .collect();
        sets.dedup();
        sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), (1.25, 3.0, 7.0));
        // ... and extrapolates like it on two values: [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(Dist::of(&short).p99.is_none());
        let long: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(Dist::of(&long).p99, Some(989.0));
    }

    #[test]
    fn scrape_deltas_and_histograms() {
        let before = Scrape::parse(
            "# TYPE x histogram\nx{endpoint=\"match\",stat=\"sum\"} 10\nx{endpoint=\"match\",stat=\"count\"} 2\nc_total 5\n",
        );
        let after = Scrape::parse(
            "x{endpoint=\"match\",stat=\"sum\"} 40\nx{endpoint=\"match\",stat=\"count\"} 5\nx{endpoint=\"install\",stat=\"sum\"} 7\nx{endpoint=\"install\",stat=\"count\"} 1\nc_total 9\n\
             y{engine=\"sql\",phase=\"execute\",stat=\"sum\"} 4\ny{engine=\"sql\",phase=\"execute\",stat=\"count\"} 1\n",
        );
        let d = after.delta(&before);
        assert_eq!(d.get("c_total"), 4.0);
        assert_eq!(d.hist("x", "endpoint=\"match\""), (30.0, 3.0));
        assert_eq!(d.hist("x", ""), (37.0, 4.0));
        assert_eq!(d.hist("y", "engine=\"sql\",phase=\"execute\""), (4.0, 1.0));
        assert_eq!(d.hist("y", "engine=\"sql\""), (0.0, 0.0));
        assert_eq!(
            d.hist_label_sets("x"),
            ["endpoint=\"install\"", "endpoint=\"match\""]
        );
    }
}

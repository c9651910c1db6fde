//! Named metrics with units, tail percentiles, and the result line.

use simclock::stats::LatencyHistogram;

/// How a metric behaves across runs at one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host wall-clock or memory: varies run to run.
    Host,
    /// Modelled (virtual) time or a deterministic count or ratio:
    /// bit-identical across runs at one seed.
    Deterministic,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `virt_e2e_p50_ms`.
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: String,
    /// The value as measured.
    pub value: f64,
    /// Host or deterministic.
    pub kind: Kind,
}

/// An insertion-ordered set of metrics (a later value of a name
/// replaces the earlier one).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    fn put(&mut self, name: &str, unit: &str, value: f64, kind: Kind) {
        let metric = Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value,
            kind,
        };
        match self.items.iter_mut().find(|m| m.name == name) {
            Some(slot) => *slot = metric,
            None => self.items.push(metric),
        }
    }

    /// Records a host-time or host-memory metric.
    pub fn host(&mut self, name: &str, unit: &str, value: f64) {
        self.put(name, unit, value, Kind::Host);
    }

    /// Records a virtual-time, count or ratio metric.
    pub fn det(&mut self, name: &str, unit: &str, value: f64) {
        self.put(name, unit, value, Kind::Deterministic);
    }

    /// Records a count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.det(name, "count", value as f64);
    }

    /// The metric called `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.items.iter().find(|m| m.name == name)
    }

    /// The value of `name`, or 0 when absent.
    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |m| m.value)
    }

    /// Every metric, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.items.iter()
    }

    /// The deterministic metrics, as `(name, bits)` pairs.
    pub fn deterministic(&self) -> Vec<(String, u64)> {
        self.items
            .iter()
            .filter(|m| m.kind == Kind::Deterministic)
            .map(|m| (m.name.clone(), m.value.to_bits()))
            .collect()
    }

    /// `Ok` when `other` has exactly the same deterministic metrics,
    /// otherwise the differing ones, named.
    pub fn same_deterministic(&self, other: &Metrics) -> Result<(), String> {
        let (a, b) = (self.deterministic(), other.deterministic());
        if a == b {
            return Ok(());
        }
        let diff: Vec<String> = a
            .iter()
            .zip(&b)
            .filter(|(x, y)| x != y)
            .map(|((name, x), (_, y))| {
                format!("{name}: {} vs {}", f64::from_bits(*x), f64::from_bits(*y))
            })
            .collect();
        Err(if diff.is_empty() {
            "different metric sets".to_owned()
        } else {
            diff.join(", ")
        })
    }

    /// FNV-1a over every deterministic metric's name and bits.
    pub fn deterministic_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (name, bits) in self.deterministic() {
            for b in name.bytes().chain(bits.to_le_bytes()) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank `q`-quantile of ascending `sorted` (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of ascending `sorted`: the highest percentile with at least
/// [`TAIL_BEYOND`] samples beyond it, as `(percentile, value)`. With
/// fewer than `TAIL_BEYOND + 1` samples the maximum stands in.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let idx = if n > TAIL_BEYOND {
        n - TAIL_BEYOND - 1
    } else {
        n - 1
    };
    (100.0 * (idx + 1) as f64 / n as f64, sorted[idx])
}

/// Every sample of a virtual-time histogram, ascending, in ns / `scale`.
pub fn hist_sorted(h: &LatencyHistogram, scale: f64) -> Vec<f64> {
    let mut h = h.clone();
    let n = h.len();
    (1..=n)
        .map(|rank| h.percentile((rank as f64 - 0.5) / n as f64).as_nanos() as f64 / scale)
        .collect()
}

/// Arithmetic mean (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}

/// Share of samples the tail mean averages over.
pub const TAIL_MEAN_SHARE: f64 = 0.01;

/// Mean of the slowest [`TAIL_MEAN_SHARE`] of ascending `sorted` (at
/// least one sample).
pub fn tail_mean(sorted: &[f64]) -> f64 {
    let k = ((sorted.len() as f64 * TAIL_MEAN_SHARE).ceil() as usize).max(1);
    mean(&sorted[sorted.len().saturating_sub(k)..])
}

/// Records the end-to-end virtual latency metrics of ascending
/// `e2e_ms`, and the percentiles next to them.
pub fn e2e_latency(m: &mut Metrics, e2e_ms: &[f64]) {
    m.det("virt_e2e_mean_ms", "ms", mean(e2e_ms));
    m.det("virt_e2e_tail_mean_ms", "ms", tail_mean(e2e_ms));
    m.det("virt_e2e_p50_ms", "ms", quantile(e2e_ms, 0.5));
    m.det("virt_e2e_tail_ms", "ms", tail(e2e_ms).1);
    m.count("virt_e2e.samples", e2e_ms.len() as u64);
}

/// Median of `samples` (0 when empty).
pub fn median(samples: Vec<f64>) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// Sorts `samples` ascending (NaN-free input).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Formats the result line the benchmark prints last: the metrics
/// named in `names`, in that order.
///
/// # Panics
///
/// If a named metric is missing or has a different unit: the benchmark
/// must print exactly the metrics `BENCHMARK.json` lists.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    names: &[(&str, &str)],
) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert_eq!(m.unit, *unit, "metric {name} has unit {}", m.unit);
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s), (90.0, 90.0));
        assert_eq!(tail(&[3.0, 1.0]), (100.0, 1.0));
        assert_eq!(tail(&[1.0, 3.0]), (100.0, 3.0));
        assert_eq!(quantile(&s, 0.5), 50.0);
    }

    #[test]
    fn tail_mean_averages_the_slowest_percent() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_mean(&s), 199.5);
        assert_eq!(tail_mean(&[4.0]), 4.0);
        assert_eq!(mean(&s), 100.5);
    }

    #[test]
    fn later_value_replaces_earlier() {
        let mut m = Metrics::default();
        m.count("a", 1);
        m.count("a", 2);
        assert_eq!(m.iter().count(), 1);
        assert_eq!(m.value("a"), 2.0);
    }
}

//! Latency histograms and order statistics.

/// Values below this are recorded exactly; above it, to 1/1024 relative
/// precision. Fixed size, so recording never allocates and a run of tens
/// of millions of queries keeps its latencies in ~0.5 MB.
const EXACT: u64 = 2048;
const SUB_BITS: u32 = 10;
const BUCKETS: usize = EXACT as usize + 54 * (1 << SUB_BITS);

pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < EXACT {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = (v >> shift) - (1 << SUB_BITS);
        EXACT as usize + (msb as usize - 11) * (1 << SUB_BITS) + sub as usize
    }

    fn lower_bound(idx: usize) -> u64 {
        if idx < EXACT as usize {
            return idx as u64;
        }
        let rest = idx - EXACT as usize;
        let msb = (rest >> SUB_BITS) as u32 + 11;
        let sub = (rest & ((1 << SUB_BITS) - 1)) as u64 + (1 << SUB_BITS);
        sub << (msb - SUB_BITS)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// Nearest-rank quantile `p` in `(0, 1]`, as the bucket's lower bound.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::lower_bound(idx);
            }
        }
        Self::lower_bound(BUCKETS - 1)
    }
}

/// Median of a sample; 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of a sample, interpolating linearly between order
/// statistics; 0 if empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_trip_and_are_monotone() {
        let mut prev = 0;
        for v in (0..5000).chain([1 << 20, (1 << 20) + 4095, u64::MAX / 2]) {
            let idx = Histogram::index(v);
            let lb = Histogram::lower_bound(idx);
            assert!(lb <= v && v - lb <= v >> SUB_BITS, "{v} -> {lb}");
            assert!(idx >= prev);
            prev = idx;
        }
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 50);
        assert_eq!(h.quantile(0.99), 99);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.75), 1.75);
    }
}

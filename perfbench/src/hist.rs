//! Fixed-memory latency histogram, so the benchmark's own footprint does
//! not grow with the number of requests a run manages (which would leak
//! machine speed into `peak_rss_mb`). Values below 4096 are exact; above,
//! buckets keep 12 significant bits (relative width ≤ 1/2048).

const BITS: u32 = 12;
const HALF: usize = 1 << (BITS - 1);

fn bucket(v: u64) -> usize {
    if v < 1 << BITS {
        return v as usize;
    }
    let m = 63 - v.leading_zeros();
    let top = (v >> (m - BITS + 1)) as usize;
    (1 << BITS) + (m - BITS) as usize * HALF + (top - HALF)
}

/// Midpoint of a bucket's value range.
fn value(b: usize) -> f64 {
    if b < 1 << BITS {
        return b as f64;
    }
    let k = b - (1 << BITS);
    let shift = (k / HALF) as u32 + 1;
    let lo = ((k % HALF + HALF) as u64) << shift;
    lo as f64 + ((1u64 << shift) - 1) as f64 / 2.0
}

pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

impl Hist {
    pub fn new() -> Hist {
        Hist { counts: vec![0; bucket(u64::MAX) + 1], n: 0 }
    }

    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// Nearest-rank quantile, `NaN` when empty.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let rank = ((p * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return value(b);
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0;
        for v in (0..1u64 << 20).chain([u64::MAX / 3, u64::MAX]) {
            let b = bucket(v);
            assert!(b >= last, "bucket order at {v}");
            last = b;
            let mid = value(b);
            assert!((mid - v as f64).abs() <= v as f64 / 2048.0 + 0.5, "width at {v}");
        }
    }

    #[test]
    fn quantiles_match_nearest_rank() {
        let mut h = Hist::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.len(), 100);
    }
}

//! Latency samples kept at 1 ns resolution in fixed memory.
//!
//! Samples below 65.536 µs land in a per-nanosecond count array; longer
//! ones are kept as raw values. Percentiles are exact, and the memory a
//! run uses does not grow with its length, so the peak-RSS metric does
//! not depend on how many ops a run completes.

const FINE_NS: usize = 1 << 16;

/// A set of latency samples (ns).
#[derive(Debug, Clone)]
pub struct LatencyLog {
    fine: Vec<u32>,
    fine_total: u64,
    coarse: Vec<u64>,
}

impl Default for LatencyLog {
    fn default() -> Self {
        LatencyLog { fine: vec![0; FINE_NS], fine_total: 0, coarse: Vec::new() }
    }
}

impl LatencyLog {
    /// Adds one sample.
    pub fn record(&mut self, ns: u64) {
        match self.fine.get_mut(ns as usize) {
            Some(c) => {
                *c += 1;
                self.fine_total += 1;
            }
            None => self.coarse.push(ns),
        }
    }

    /// Adds every sample of `other`.
    pub fn absorb(&mut self, other: &LatencyLog) {
        for (a, b) in self.fine.iter_mut().zip(&other.fine) {
            *a += b;
        }
        self.fine_total += other.fine_total;
        self.coarse.extend_from_slice(&other.coarse);
    }

    /// Number of samples.
    pub fn len(&self) -> u64 {
        self.fine_total + self.coarse.len() as u64
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The nearest-rank `q` quantile (ns) and how many samples lie
    /// beyond it; `(0, 0)` when empty.
    pub fn percentile(&mut self, q: f64) -> (u64, u64) {
        let n = self.len();
        if n == 0 {
            return (0, 0);
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let beyond = n - rank;
        if rank <= self.fine_total {
            let mut seen = 0u64;
            for (ns, &c) in self.fine.iter().enumerate() {
                seen += u64::from(c);
                if seen >= rank {
                    return (ns as u64, beyond);
                }
            }
        }
        self.coarse.sort_unstable();
        (self.coarse[(rank - self.fine_total - 1) as usize], beyond)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_match_a_sorted_vector() {
        let samples: Vec<u64> = (0..5000u64)
            .map(|i| (i * 7919) % 3000 + if i % 97 == 0 { 100_000 + i } else { 0 })
            .collect();
        let mut log = LatencyLog::default();
        for &s in &samples[..2500] {
            log.record(s);
        }
        let mut other = LatencyLog::default();
        for &s in &samples[2500..] {
            other.record(s);
        }
        log.absorb(&other);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = (q * 5000.0_f64).ceil() as usize;
            assert_eq!(log.percentile(q), (sorted[rank - 1], (5000 - rank) as u64), "q={q}");
        }
        assert_eq!(LatencyLog::default().percentile(0.5), (0, 0));
    }
}

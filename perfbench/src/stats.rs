//! Small statistics the benchmark reports with: medians of repeated
//! measurements, tail percentiles that refuse to speak from too few
//! samples, the seeded generator that makes workload inputs, and the
//! rate ladder that finds the highest sustainable request rate.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; below that, one outlier would decide the number.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The tail a run can honestly report: the nearest-rank `p`-th
/// percentile when enough samples lie beyond it, else the maximum.
pub fn tail(sorted: &[f64], p: f64) -> f64 {
    percentile(sorted, p).unwrap_or_else(|| sorted.last().copied().unwrap_or(0.0))
}

/// Median of repeated measurements (mean of the middle two for an
/// even count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Splits `(offset, value)` samples into consecutive windows `width`
/// wide by offset and returns, in window order, the nearest-rank
/// `p`-th percentile of each window that has enough samples beyond it.
pub fn windowed(samples: &[(f64, f64)], width: f64, p: f64) -> Vec<f64> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(at, value) in samples {
        let w = (at / width).floor().max(0.0) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(value);
    }
    windows
        .into_iter()
        .filter_map(|w| percentile(&sorted(w), p))
        .collect()
}

/// Sorts samples ascending (the form [`percentile`] takes).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// SplitMix64: the workload generator. The same seed yields the same
/// sequence on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator over `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// What one ladder step measured at one offered rate.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Offered rate, requests per second.
    pub offered: f64,
    /// Responses completed per second over the step's wall time.
    pub achieved: f64,
    /// p99 latency in milliseconds, if the step had enough samples.
    pub p99_ms: Option<f64>,
    /// Failed requests (non-200, 429, transport error, wrong body).
    pub failed: u64,
}

/// The ladder's acceptance rule.
#[derive(Debug, Clone, Copy)]
pub struct Slo {
    /// Highest acceptable p99, milliseconds.
    pub p99_ms: f64,
    /// Lowest acceptable achieved/offered ratio; below it the backlog
    /// is growing.
    pub min_achieved: f64,
}

impl Slo {
    /// Whether `s` meets the rule: a reportable p99 within the limit,
    /// no failures, and no growing backlog.
    pub fn met_by(&self, s: &Step) -> bool {
        s.failed == 0
            && s.p99_ms.is_some_and(|p| p <= self.p99_ms)
            && s.achieved >= self.min_achieved * s.offered
    }
}

/// Finds the highest rate that meets `slo`. From `start`, climb by
/// `factor` until a rate fails (or passes `max_rate`), or, if `start`
/// itself fails, descend by `factor` until a rate passes (or falls
/// below `min_rate`); then bisect the bracket `bisections` times. A
/// rate fails only when two steps at it both miss the rule, so one
/// stall of a shared host does not end the climb. Returns the best
/// passing rate (0 when none down to `min_rate` passes) and every step
/// run, in order.
pub fn max_rate(
    slo: Slo,
    (start, min_rate, max_rate): (f64, f64, f64),
    factor: f64,
    bisections: u32,
    mut run: impl FnMut(f64) -> Step,
) -> (f64, Vec<Step>) {
    let mut steps = Vec::new();
    let mut passes = |rate: f64| {
        (0..2).any(|_| {
            let s = run(rate);
            steps.push(s);
            slo.met_by(&s)
        })
    };
    let (mut good, mut bad) = (None, None);
    let mut rate = start;
    if passes(rate) {
        good = Some(rate);
        while rate * factor <= max_rate {
            rate *= factor;
            if !passes(rate) {
                bad = Some(rate);
                break;
            }
            good = Some(rate);
        }
    } else {
        bad = Some(rate);
        while rate / factor >= min_rate {
            rate /= factor;
            if passes(rate) {
                good = Some(rate);
                break;
            }
            bad = Some(rate);
        }
    }
    if let (Some(mut lo), Some(mut hi)) = (good, bad) {
        for _ in 0..bisections {
            let mid = (lo + hi) / 2.0;
            if passes(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        good = Some(lo);
    }
    (good.unwrap_or(0.0), steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // rank 990 of 1000 leaves exactly 10 beyond.
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        // 999 samples: rank 990 leaves 9 beyond, so p99 is withheld...
        assert_eq!(percentile(&v[..999], 99.0), None);
        // ...while p50 still has plenty.
        assert_eq!(percentile(&v[..999], 50.0), Some(500.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(
            percentile(&[1.0; 10], 0.0),
            None,
            "rank 1 of 10 leaves 9 beyond"
        );
        assert_eq!(percentile(&[1.0; 11], 0.0), Some(1.0));
    }

    #[test]
    fn windows_split_by_offset_and_skip_thin_ones() {
        // Two full seconds, one value per millisecond: 1..=1000 in the
        // first, 1001..=2000 in the second, given out of order.
        let mut samples: Vec<(f64, f64)> = (0..2000)
            .map(|i| (i as f64 / 1000.0, f64::from(i + 1)))
            .collect();
        samples.reverse();
        assert_eq!(windowed(&samples, 1.0, 50.0), [500.0, 1500.0]);
        assert_eq!(windowed(&samples, 1.0, 99.0), [990.0, 1990.0]);
        // A third window of five samples has too few beyond its p50.
        samples.extend((0..5).map(|i| (2.5, f64::from(i))));
        assert_eq!(windowed(&samples, 1.0, 50.0).len(), 2);
        assert!(windowed(&[], 1.0, 50.0).is_empty());
    }

    #[test]
    fn tail_falls_back_to_the_maximum() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0), 50.0);
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0), 1980.0);
        assert_eq!(tail(&[], 99.0), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: Vec<u64> = (0..5)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..5)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..5)
            .scan(Rng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut v: Vec<u32> = (0..20).collect();
        Rng::new(1).shuffle(&mut v);
        let mut w: Vec<u32> = (0..20).collect();
        Rng::new(1).shuffle(&mut w);
        assert_eq!(v, w);
        v.sort_unstable();
        assert_eq!(v, (0..20).collect::<Vec<_>>(), "a shuffle is a permutation");
    }

    const SLO: Slo = Slo {
        p99_ms: 5.0,
        min_achieved: 0.95,
    };

    /// A server with capacity `cap`: below it latency is flat, above it
    /// the queue grows, so achieved throughput stalls and latency
    /// climbs.
    fn model(cap: f64) -> impl FnMut(f64) -> Step {
        move |offered| {
            let achieved = offered.min(cap);
            let p99 = if offered < cap {
                1.0
            } else {
                1.0 + 100.0 * (offered / cap - 1.0)
            };
            Step {
                offered,
                achieved,
                p99_ms: Some(p99),
                failed: 0,
            }
        }
    }

    #[test]
    fn ladder_converges_below_capacity() {
        let (best, steps) = max_rate(SLO, (1000.0, 100.0, 64_000.0), 2.0, 6, model(5000.0));
        // p99 reaches 5 ms at 4% over capacity: 5200.
        assert!(best <= 5200.0 && best > 4800.0, "{best}");
        // 1000, 2000, 4000 pass; 8000 fails twice; six bisections, of
        // which the failing ones run twice.
        let failed = steps.iter().filter(|s| !SLO.met_by(s)).count();
        assert_eq!(steps.len(), 3 + 2 + 6 + (failed - 2) / 2);
    }

    #[test]
    fn ladder_detects_a_growing_backlog_even_with_good_latency() {
        // Latency looks fine, but throughput stalls at 3000: the queue
        // is growing, so 4000 must not count as sustained.
        let run = |offered: f64| Step {
            offered,
            achieved: offered.min(3000.0),
            p99_ms: Some(1.0),
            failed: 0,
        };
        let (best, _) = max_rate(SLO, (1000.0, 100.0, 64_000.0), 2.0, 0, run);
        assert_eq!(best, 2000.0);
        assert!(!SLO.met_by(&run(4000.0)));
        assert!(SLO.met_by(&run(3000.0)));
    }

    #[test]
    fn ladder_rejects_failures_and_unreportable_tails() {
        let failing = Step {
            offered: 100.0,
            achieved: 100.0,
            p99_ms: Some(1.0),
            failed: 1,
        };
        assert!(!SLO.met_by(&failing));
        let thin = Step {
            offered: 100.0,
            achieved: 100.0,
            p99_ms: None,
            failed: 0,
        };
        assert!(!SLO.met_by(&thin));
        let (best, steps) = max_rate(SLO, (1000.0, 300.0, 64_000.0), 2.0, 4, |o| Step {
            failed: 1,
            ..model(5000.0)(o)
        });
        assert_eq!(best, 0.0);
        // 1000 and 500 run twice each; 250 is below the floor; no
        // bisection without a passing rate.
        assert_eq!(steps.len(), 4);
    }

    #[test]
    fn one_missed_step_does_not_end_the_climb() {
        // Every first attempt at 4000 stalls; its retry passes.
        let mut tries = 0;
        let run = |offered: f64| {
            let mut s = model(5000.0)(offered);
            if offered == 4000.0 {
                tries += 1;
                if tries == 1 {
                    s.p99_ms = Some(50.0);
                }
            }
            s
        };
        let (best, _) = max_rate(SLO, (1000.0, 100.0, 64_000.0), 2.0, 0, run);
        assert_eq!(best, 4000.0);
    }

    #[test]
    fn ladder_stops_at_its_ceiling() {
        let (best, steps) = max_rate(SLO, (1000.0, 100.0, 4000.0), 2.0, 3, model(1e9));
        assert_eq!(best, 4000.0);
        assert_eq!(steps.len(), 3);
    }

    #[test]
    fn ladder_descends_when_the_start_rate_fails() {
        let (best, steps) = max_rate(SLO, (8000.0, 100.0, 64_000.0), 2.0, 3, model(1500.0));
        // 8000, 4000 and 2000 fail twice each, 1000 passes; bisecting
        // [1000, 2000] three times lands within 1/8 of the bracket.
        assert!(best > 1375.0 && best <= 1560.0, "{best}");
        assert_eq!(steps[..7].iter().filter(|s| SLO.met_by(s)).count(), 1);
    }
}

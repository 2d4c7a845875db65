//! Open-loop traffic: seeded arrival processes and heavy-tailed request
//! sizes.
//!
//! The frontend is *open-loop*: requests arrive on their own clock
//! whether or not the cluster keeps up, which is what makes tail latency
//! and SLO-miss rate meaningful (a closed loop self-throttles and hides
//! overload). Two arrival shapes cover the datacenter cases: a
//! homogeneous Poisson process for steady load, and a diurnal
//! (day/night) profile whose rate swings sinusoidally over a configurable
//! period. Request sizes are bounded-Pareto — most requests are small,
//! a heavy tail is not — the canonical serving-workload shape.
//!
//! Everything is driven by one [`SimRng`] stream through inverse-CDF
//! sampling, so a `(seed, profile)` pair always generates the identical
//! request sequence: same count, same arrival cycles, same sizes. The
//! `same_seed_same_stream` test pins this down, and the cluster's
//! bit-identical guarantee inherits from it.

use smarco_sim::rng::SimRng;
use smarco_sim::Cycle;

/// Diurnal rate shape, one multiplier per slot of the period: a raised
/// sine sampled at 8 points (trough at slot 0, peak at slot 4). The
/// piecewise-constant shape keeps non-homogeneous Poisson inversion
/// closed-form (no numeric root-finding on the hot path).
const DIURNAL_SHAPE: [f64; 8] = [0.0, 0.1464, 0.5, 0.8536, 1.0, 0.8536, 0.5, 0.1464];

/// When requests arrive (rates in expected requests per 1000 cycles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson: exponential inter-arrivals at a fixed rate.
    Poisson {
        /// Expected arrivals per 1000 cycles.
        per_kcycle: f64,
    },
    /// Non-homogeneous Poisson whose rate follows a day/night curve:
    /// piecewise-constant over eight slots per period, shaped like a
    /// raised sine from `base` (trough) to `peak`.
    Diurnal {
        /// Trough rate, per 1000 cycles. Must be positive.
        base_per_kcycle: f64,
        /// Peak rate, per 1000 cycles. Must be at least the base.
        peak_per_kcycle: f64,
        /// Cycles per full day/night swing.
        period: Cycle,
    },
}

impl ArrivalProcess {
    /// Time-averaged arrival rate per 1000 cycles (for the diurnal curve,
    /// the mean of the slot shape — exactly `(base + peak) / 2` for the
    /// symmetric raised sine).
    pub fn mean_per_kcycle(&self) -> f64 {
        match *self {
            Self::Poisson { per_kcycle } => per_kcycle,
            Self::Diurnal {
                base_per_kcycle,
                peak_per_kcycle,
                ..
            } => {
                let shape_mean = DIURNAL_SHAPE.iter().sum::<f64>() / DIURNAL_SHAPE.len() as f64;
                base_per_kcycle + (peak_per_kcycle - base_per_kcycle) * shape_mean
            }
        }
    }

    fn check(&self) -> Result<(), String> {
        match *self {
            Self::Poisson { per_kcycle } => {
                if !(per_kcycle > 0.0 && per_kcycle.is_finite()) {
                    return Err("arrival rate must be positive and finite".into());
                }
            }
            Self::Diurnal {
                base_per_kcycle,
                peak_per_kcycle,
                period,
            } => {
                if !(base_per_kcycle > 0.0 && base_per_kcycle.is_finite()) {
                    return Err("diurnal base rate must be positive and finite".into());
                }
                if !(peak_per_kcycle >= base_per_kcycle && peak_per_kcycle.is_finite()) {
                    return Err("diurnal peak rate must be >= the base rate".into());
                }
                if period < DIURNAL_SHAPE.len() as Cycle {
                    return Err("diurnal period must cover at least one cycle per slot".into());
                }
            }
        }
        Ok(())
    }

    /// Instantaneous rate per *cycle* at continuous time `t`.
    fn rate_at(&self, t: f64) -> f64 {
        match *self {
            Self::Poisson { per_kcycle } => per_kcycle / 1000.0,
            Self::Diurnal {
                base_per_kcycle,
                peak_per_kcycle,
                period,
            } => {
                let period = period as f64;
                let slot_len = period / DIURNAL_SHAPE.len() as f64;
                let pos = t.rem_euclid(period);
                let slot = ((pos / slot_len) as usize).min(DIURNAL_SHAPE.len() - 1);
                (base_per_kcycle + (peak_per_kcycle - base_per_kcycle) * DIURNAL_SHAPE[slot])
                    / 1000.0
            }
        }
    }

    /// Advances continuous time `t` to the next arrival given one
    /// unit-rate exponential deviate `e`, by inverting the integrated
    /// rate function (exact for the piecewise-constant diurnal curve).
    fn next_arrival(&self, t: f64, mut e: f64) -> f64 {
        match *self {
            Self::Poisson { .. } => t + e / self.rate_at(t),
            Self::Diurnal { period, .. } => {
                let period = period as f64;
                let slot_len = period / DIURNAL_SHAPE.len() as f64;
                let mut t = t;
                loop {
                    let rate = self.rate_at(t);
                    let pos = t.rem_euclid(period);
                    // Distance to the next slot boundary (never zero:
                    // rem_euclid keeps pos strictly below the boundary).
                    let boundary = (pos / slot_len).floor() * slot_len + slot_len;
                    let left = boundary - pos;
                    if e <= rate * left {
                        return t + e / rate;
                    }
                    e -= rate * left;
                    t += left;
                }
            }
        }
    }
}

/// Bounded-Pareto request sizes in work-cycles: power-law body with hard
/// floor and ceiling, the standard heavy-tail model for serving traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeDistribution {
    /// Tail index. Smaller is heavier; `1 < alpha <= 2` gives the classic
    /// finite-mean, high-variance serving tail.
    pub alpha: f64,
    /// Smallest request, in work-cycles (the distribution's `L`).
    pub min_work: Cycle,
    /// Largest request, in work-cycles (the distribution's `H`).
    pub max_work: Cycle,
}

impl SizeDistribution {
    /// The default serving mix: `alpha = 1.5`, sizes 256–8192 work-cycles.
    pub fn serving() -> Self {
        Self {
            alpha: 1.5,
            min_work: 256,
            max_work: 8192,
        }
    }

    fn check(&self) -> Result<(), String> {
        if !(self.alpha > 0.0 && self.alpha.is_finite()) {
            return Err("pareto alpha must be positive and finite".into());
        }
        if self.min_work == 0 {
            return Err("minimum request size must be positive".into());
        }
        if self.max_work < self.min_work {
            return Err("maximum request size must be >= the minimum".into());
        }
        Ok(())
    }

    /// Inverse-CDF sample, clamped into `[min_work, max_work]`.
    fn sample(&self, rng: &mut SimRng) -> Cycle {
        let l = self.min_work as f64;
        let h = self.max_work as f64;
        if self.min_work == self.max_work {
            return self.min_work;
        }
        let u = rng.gen_f64();
        let ratio = (l / h).powf(self.alpha);
        let x = l / (1.0 - u * (1.0 - ratio)).powf(1.0 / self.alpha);
        (x as Cycle).clamp(self.min_work, self.max_work)
    }

    /// Expected request size in work-cycles (closed form; the `alpha = 1`
    /// special case uses the logarithmic limit).
    pub fn mean_work(&self) -> f64 {
        let l = self.min_work as f64;
        let h = self.max_work as f64;
        if self.min_work == self.max_work {
            return l;
        }
        let a = self.alpha;
        let ratio = (l / h).powf(a);
        if (a - 1.0).abs() < 1e-9 {
            return l / (1.0 - l / h) * (h / l).ln();
        }
        (l.powf(a) / (1.0 - ratio)) * (a / (a - 1.0)) * (l.powf(1.0 - a) - h.powf(1.0 - a))
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Sequential request id (generation order).
    pub id: u64,
    /// Cycle the request reaches the frontend.
    pub arrival: Cycle,
    /// Request size in work-cycles.
    pub work: Cycle,
}

/// A complete open-loop traffic description: seeded arrivals, sizes, the
/// end-to-end SLO, and how many requests the run offers in total.
///
/// ```
/// use smarco_core::cluster::TrafficProfile;
///
/// let profile = TrafficProfile::poisson(42, 4.0).requests(100);
/// let first: Vec<_> = profile.stream().take(3).collect();
/// // Same seed, same stream — bit-identical arrivals and sizes.
/// let again: Vec<_> = profile.stream().take(3).collect();
/// assert_eq!(first, again);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficProfile {
    /// RNG seed; the whole request sequence is a pure function of it.
    pub seed: u64,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Request-size distribution.
    pub sizes: SizeDistribution,
    /// End-to-end service-level objective in cycles: a request completing
    /// more than `slo` cycles after its arrival is an SLO miss.
    pub slo: Cycle,
    /// Total requests the frontend offers before going quiet.
    pub requests: u64,
}

impl TrafficProfile {
    /// Steady Poisson traffic at `per_kcycle` expected requests per 1000
    /// cycles, with the default serving size mix, a 20 000-cycle SLO and
    /// 200 requests.
    pub fn poisson(seed: u64, per_kcycle: f64) -> Self {
        Self {
            seed,
            arrivals: ArrivalProcess::Poisson { per_kcycle },
            sizes: SizeDistribution::serving(),
            slo: 20_000,
            requests: 200,
        }
    }

    /// Diurnal traffic swinging between `base` and `peak` requests per
    /// 1000 cycles over `period` cycles, defaults as in
    /// [`poisson`](Self::poisson).
    pub fn diurnal(seed: u64, base_per_kcycle: f64, peak_per_kcycle: f64, period: Cycle) -> Self {
        Self {
            seed,
            arrivals: ArrivalProcess::Diurnal {
                base_per_kcycle,
                peak_per_kcycle,
                period,
            },
            sizes: SizeDistribution::serving(),
            slo: 20_000,
            requests: 200,
        }
    }

    /// Replaces the size distribution.
    #[must_use]
    pub fn sizes(mut self, sizes: SizeDistribution) -> Self {
        self.sizes = sizes;
        self
    }

    /// Replaces the end-to-end SLO.
    #[must_use]
    pub fn slo(mut self, slo: Cycle) -> Self {
        self.slo = slo;
        self
    }

    /// Replaces the total request count.
    #[must_use]
    pub fn requests(mut self, requests: u64) -> Self {
        self.requests = requests;
        self
    }

    /// Validates the profile (positive rates, sane size bounds, a
    /// positive SLO and request count).
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency as a human-readable string.
    pub fn check(&self) -> Result<(), String> {
        self.arrivals.check()?;
        self.sizes.check()?;
        if self.slo == 0 {
            return Err("SLO must be positive".into());
        }
        if self.requests == 0 {
            return Err("traffic must offer at least one request".into());
        }
        Ok(())
    }

    /// Mean offered load in work-cycles per 1000 cycles: arrival rate ×
    /// mean request size. Comparing this against the cluster's aggregate
    /// issue width is lint SL0461's unbounded-queue test.
    pub fn offered_work_per_kcycle(&self) -> f64 {
        self.arrivals.mean_per_kcycle() * self.sizes.mean_work()
    }

    /// The deterministic request stream this profile describes.
    pub fn stream(&self) -> RequestStream {
        RequestStream {
            rng: SimRng::new(self.seed),
            arrivals: self.arrivals,
            sizes: self.sizes,
            t: 0.0,
            emitted: 0,
            total: self.requests,
        }
    }
}

/// Iterator over a profile's requests, in arrival order. Pure function of
/// the profile: two streams from equal profiles yield equal sequences.
#[derive(Debug, Clone)]
pub struct RequestStream {
    rng: SimRng,
    arrivals: ArrivalProcess,
    sizes: SizeDistribution,
    t: f64,
    emitted: u64,
    total: u64,
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.emitted == self.total {
            return None;
        }
        // Unit-rate exponential deviate by inversion; gen_f64 is in
        // [0, 1), so 1 − u is in (0, 1] and the log is finite.
        let e = -(1.0 - self.rng.gen_f64()).ln();
        self.t = self.arrivals.next_arrival(self.t, e);
        let work = self.sizes.sample(&mut self.rng);
        let req = Request {
            id: self.emitted,
            arrival: self.t as Cycle,
            work,
        };
        self.emitted += 1;
        Some(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        for p in [
            TrafficProfile::poisson(7, 3.0).requests(500),
            TrafficProfile::diurnal(97, 1.0, 6.0, 40_000).requests(500),
        ] {
            let a: Vec<_> = p.stream().collect();
            let b: Vec<_> = p.stream().collect();
            assert_eq!(a, b);
            assert_eq!(a.len(), 500);
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a: Vec<_> = TrafficProfile::poisson(1, 3.0)
            .requests(50)
            .stream()
            .collect();
        let b: Vec<_> = TrafficProfile::poisson(2, 3.0)
            .requests(50)
            .stream()
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_are_monotone_and_sized_within_bounds() {
        let p = TrafficProfile::diurnal(11, 1.0, 8.0, 50_000).requests(2_000);
        let mut last = 0;
        for r in p.stream() {
            assert!(r.arrival >= last, "arrivals must not go backwards");
            last = r.arrival;
            assert!(r.work >= p.sizes.min_work && r.work <= p.sizes.max_work);
        }
    }

    #[test]
    fn poisson_rate_is_roughly_honoured() {
        let p = TrafficProfile::poisson(3, 5.0).requests(20_000);
        let last = p.stream().last().unwrap();
        let measured = 20_000.0 / (last.arrival as f64 / 1000.0);
        assert!(
            (measured - 5.0).abs() < 0.5,
            "measured {measured:.2}/kcycle, wanted 5.0"
        );
    }

    #[test]
    fn diurnal_peak_slots_run_hotter_than_trough_slots() {
        let period = 80_000u64;
        let p = TrafficProfile::diurnal(5, 1.0, 10.0, period).requests(50_000);
        let (mut peak, mut trough) = (0u64, 0u64);
        for r in p.stream() {
            let pos = r.arrival % period;
            let slot = (pos * 8 / period) as usize;
            match slot {
                4 => peak += 1,
                0 => trough += 1,
                _ => {}
            }
        }
        assert!(
            peak > trough * 3,
            "peak slot {peak} arrivals vs trough {trough}"
        );
    }

    #[test]
    fn pareto_mean_matches_empirical_mean() {
        let sizes = SizeDistribution::serving();
        let p = TrafficProfile::poisson(9, 4.0).requests(50_000);
        let total: u64 = p.stream().map(|r| r.work).sum();
        let empirical = total as f64 / 50_000.0;
        let analytic = sizes.mean_work();
        assert!(
            (empirical - analytic).abs() / analytic < 0.05,
            "empirical {empirical:.1} vs analytic {analytic:.1}"
        );
    }

    #[test]
    fn heavy_tail_is_actually_heavy() {
        // Most requests sit near the floor, but the max dwarfs the median.
        let p = TrafficProfile::poisson(13, 4.0).requests(10_000);
        let mut works: Vec<_> = p.stream().map(|r| r.work).collect();
        works.sort_unstable();
        let median = works[works.len() / 2];
        let max = *works.last().unwrap();
        assert!(median < 1_024, "median {median}");
        assert!(max > 6_000, "max {max}");
    }

    #[test]
    fn offered_load_combines_rate_and_mean_size() {
        let p = TrafficProfile::poisson(1, 2.0);
        let want = 2.0 * p.sizes.mean_work();
        assert!((p.offered_work_per_kcycle() - want).abs() < 1e-9);
    }

    #[test]
    fn invalid_profiles_are_rejected() {
        assert!(TrafficProfile::poisson(1, 0.0).check().is_err());
        assert!(TrafficProfile::poisson(1, 2.0).requests(0).check().is_err());
        assert!(TrafficProfile::poisson(1, 2.0).slo(0).check().is_err());
        assert!(TrafficProfile::diurnal(1, 4.0, 2.0, 10_000)
            .check()
            .is_err());
        assert!(TrafficProfile::diurnal(1, 0.0, 2.0, 10_000)
            .check()
            .is_err());
        let bad_sizes = TrafficProfile::poisson(1, 2.0).sizes(SizeDistribution {
            alpha: 1.5,
            min_work: 100,
            max_work: 50,
        });
        assert!(bad_sizes.check().is_err());
        assert!(TrafficProfile::poisson(1, 2.0).check().is_ok());
    }

    #[test]
    fn degenerate_point_mass_sizes_are_fine() {
        let p = TrafficProfile::poisson(1, 2.0).sizes(SizeDistribution {
            alpha: 1.5,
            min_work: 512,
            max_work: 512,
        });
        assert!(p.check().is_ok());
        assert!(p.stream().all(|r| r.work == 512));
        assert!((p.sizes.mean_work() - 512.0).abs() < 1e-9);
    }
}

//! The three serving workloads and their seeded arrival schedules.
//!
//! Each workload fixes which models are co-located, how their ids are
//! skewed, the p99 latency limit (the same number the runtime's tuner
//! defends as its `ModelSlo`) and the offered load over the window. The
//! schedule says when each request is due and for which model; the
//! inputs themselves come from `drec_workload::QueryGen`.

use std::time::Duration;

use drec_models::ModelId;

/// Share of each request that carries a bit-for-bit output check.
pub const PROBE_EVERY: u64 = 8;

/// One of the benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All eight models, Zipf(1) model popularity and Zipf(1.0) ids,
    /// Poisson arrivals at a fixed rate well below the knee.
    ColoSteady,
    /// RM1 and RM2 only, weakly skewed ids (Zipf 0.6) whose working set
    /// overflows the hot-row cache and the DRAM tier, Poisson arrivals at
    /// a fixed rate below the knee.
    SlsSteady,
    /// `ColoSteady` traffic plus a rolling update through every model's
    /// update channel at once, for most of the window. Runs by name but
    /// is not listed in `BENCHMARK.json`: its final version does not
    /// restore the int8 store bit for bit (the updater re-encodes rows it
    /// captured decoded), so its output check fails and it exits 1.
    ColoUpdate,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, seconds from the window start.
    pub due_s: f64,
    /// Index into [`Workload::models`].
    pub model: usize,
    /// Whether its outputs are checked bit for bit.
    pub probe: bool,
}

impl Workload {
    /// Every workload this benchmark can run.
    pub const ALL: [Workload; 3] = [
        Workload::ColoSteady,
        Workload::SlsSteady,
        Workload::ColoUpdate,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColoSteady => "colo_steady",
            Workload::SlsSteady => "sls_steady",
            Workload::ColoUpdate => "colo_update",
        }
    }

    /// The co-located models, in runtime lane order.
    pub fn models(self) -> Vec<ModelId> {
        match self {
            Workload::SlsSteady => vec![ModelId::Rm1, ModelId::Rm2],
            _ => ModelId::ALL.to_vec(),
        }
    }

    /// Share of the requests for each model: Zipf(1) over the paper's
    /// Table I order for the co-located mixes; for the two SLS-dominated
    /// models three RM2 requests to one RM1, so the median latency falls
    /// inside RM2's latencies, not in the gap between the two models'.
    pub fn popularity(self) -> Vec<f64> {
        let n = self.models().len();
        let weights: Vec<f64> = match self {
            Workload::SlsSteady => vec![1.0, 3.0],
            _ => (1..=n).map(|k| 1.0 / k as f64).collect(),
        };
        let total: f64 = weights.iter().sum();
        weights.into_iter().map(|w| w / total).collect()
    }

    /// Zipf exponent of the embedding ids.
    pub fn id_skew(self) -> f64 {
        match self {
            Workload::SlsSteady => 0.6,
            _ => 1.0,
        }
    }

    /// The p99 latency limit: every model's `ModelSlo` and the limit the
    /// benchmark scores requests against.
    pub fn slo(self) -> Duration {
        Duration::from_millis(50)
    }

    /// The fixed offered rate, requests per second, well below the knee.
    /// On a 2-vCPU host the co-located mix nears its knee by 300/s (p99
    /// up to 45 ms against the 50 ms limit), and a spell of CPU time lost
    /// to other guests of the host lifted the median more at 200/s than
    /// at 120/s (3.6 ms against 2.3 ms in back-to-back runs).
    pub fn rate(self) -> f64 {
        match self {
            Workload::SlsSteady => 50.0,
            _ => 120.0,
        }
    }

    /// The seeded arrival schedule of a `seconds`-long window.
    pub fn schedule(self, seed: u64, seconds: f64) -> Vec<Arrival> {
        self.arrivals(seed, seconds)
    }

    /// A warm-up schedule of `seconds`, seeded apart from any window.
    pub fn warmup_schedule(self, seed: u64, seconds: f64) -> Vec<Arrival> {
        self.arrivals(seed ^ 0x3A2B_0000_0000, seconds)
    }

    /// Poisson arrivals at [`Workload::rate`] conditioned on their count:
    /// `rate × seconds` requests at uniformly drawn due times. Each model
    /// gets its [`Workload::popularity`] share of them (largest
    /// remainders round), in seeded order, and one in [`PROBE_EVERY`] (by
    /// a seeded draw) carries an output check. Fixing the counts keeps the
    /// seed's draw of how many requests and which models out of the
    /// run-to-run spread.
    fn arrivals(self, seed: u64, seconds: f64) -> Vec<Arrival> {
        let mut rng = SplitMix(seed ^ 0xA221_7A15);
        let n = (self.rate() * seconds).round() as usize;
        let mut due: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
        due.sort_by(f64::total_cmp);

        let popularity = self.popularity();
        let exact: Vec<f64> = popularity.iter().map(|p| p * n as f64).collect();
        let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..counts.len()).collect();
        by_remainder.sort_by(|&a, &b| (exact[b] % 1.0).total_cmp(&(exact[a] % 1.0)));
        let short = n - counts.iter().sum::<usize>();
        for &m in by_remainder.iter().take(short) {
            counts[m] += 1;
        }
        let mut models: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(m, &c)| std::iter::repeat_n(m, c))
            .collect();
        for i in (1..models.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            models.swap(i, j);
        }
        due.into_iter()
            .zip(models)
            .map(|(due_s, model)| Arrival {
                due_s,
                model,
                probe: rng.next_u64().is_multiple_of(PROBE_EVERY),
            })
            .collect()
    }

    /// Seed of model `model`'s input generator for a workload seed.
    /// Warm-up, window and replay streams use distinct `stream` values.
    pub fn input_seed(self, seed: u64, model: usize, stream: u64) -> u64 {
        let mut rng = SplitMix(seed ^ stream.wrapping_mul(0x9E37_79B9) ^ ((model as u64) << 40));
        rng.next_u64()
    }
}

/// SplitMix64: the schedule's own small seeded generator.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_per_seed_and_differ_across_seeds() {
        let a = Workload::ColoSteady.schedule(1, 10.0);
        assert_eq!(a, Workload::ColoSteady.schedule(1, 10.0));
        assert_ne!(a, Workload::ColoSteady.schedule(2, 10.0));
        // 120/s over 10 s: 1200 arrivals, sorted by due.
        assert_eq!(a.len(), 1200);
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        let probes = a.iter().filter(|r| r.probe).count();
        assert!(probes * 16 > a.len() && probes * 4 < a.len(), "{probes}");
    }

    #[test]
    fn colo_popularity_is_zipf_over_table_one_order() {
        let p = Workload::ColoSteady.popularity();
        assert_eq!(p.len(), 8);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((p[0] / p[1] - 2.0).abs() < 1e-12);
        let counts = |seed| {
            Workload::ColoSteady
                .schedule(seed, 20.0)
                .iter()
                .fold(vec![0usize; 8], |mut c, r| {
                    c[r.model] += 1;
                    c
                })
        };
        let c = counts(3);
        assert!(c[0] > c[1] && c[1] > c[7], "{c:?}");
        // The seed orders the requests; the mix is fixed.
        assert_eq!(c, counts(4));
        assert_eq!(c.iter().sum::<usize>(), 2400);
    }

    #[test]
    fn sls_steady_sends_three_rm2_requests_to_one_rm1() {
        let w = Workload::SlsSteady;
        assert_eq!(w.models(), vec![ModelId::Rm1, ModelId::Rm2]);
        assert_eq!(w.popularity(), vec![0.25, 0.75]);
        let s = w.schedule(5, 40.0);
        // 50/s over 40 s: 2000 arrivals, a quarter of them for RM1.
        assert_eq!(s.len(), 2000);
        assert_eq!(s.iter().filter(|r| r.model == 0).count(), 500);
    }
}

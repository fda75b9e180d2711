//! Pieces every workload shares: pinned engine options, the seeded
//! PRNG, latency statistics, result digests, and process counters.

use std::time::{Duration, Instant};

use mosaic_core::{
    EngineOptions, IpfConfig, OpenBackend, OpenOptions, StableHasher, SwgConfig, Table,
};

/// Worker threads the engine may use. Pinned in code so the benchmark
/// never inherits `MOSAIC_PARALLELISM` from the environment.
pub const PARALLELISM: usize = 2;
/// Radix partitions of the parallel aggregate merge (the engine default).
pub const AGG_PARTITIONS: usize = 16;
/// Result-cache capacity in megabytes (the engine default).
pub const RESULT_CACHE_MB: usize = 64;
/// Generated samples combined per OPEN query (the paper's protocol).
pub const OPEN_REPLICATES: usize = 10;
/// Rows per generated sample. The paper draws as many rows as the
/// training sample holds; at paper scale that makes one OPEN query cost
/// over a second, so the benchmark pins a smaller draw.
pub const OPEN_ROWS: usize = 2_000;
/// Set-up is repeated at least this often per run; `setup_s` is the
/// median of the repeats.
const SETUP_MIN_REPEATS: usize = 3;
/// Cheap set-ups repeat until they have taken this long in total …
const SETUP_MIN_SECONDS: f64 = 3.0;
/// … or this many times.
const SETUP_MAX_REPEATS: usize = 60;

/// The M-SWG training configuration OPEN queries use: the engine
/// default network with a short schedule (40 steps) and a smaller
/// coverage subsample, so that training fits in set-up.
pub fn swg_config() -> SwgConfig {
    SwgConfig::default()
        .with_epochs(10)
        .with_steps_per_epoch(Some(4))
        .with_coverage_subsample(512)
}

/// Engine options with every environment-derived field overridden.
pub fn engine_options() -> EngineOptions {
    EngineOptions::default()
        .with_parallelism(PARALLELISM)
        .with_optimizer(true)
        .with_agg_partitions(AGG_PARTITIONS)
        .with_result_cache(RESULT_CACHE_MB)
        .with_ipf(IpfConfig::default())
        .with_open(
            OpenOptions::default()
                .with_backend(OpenBackend::Swg(swg_config()))
                .with_num_generated(OPEN_REPLICATES)
                .with_rows_per_sample(Some(OPEN_ROWS)),
        )
}

/// One-line description of [`engine_options`] for the run record.
pub fn describe_options() -> String {
    let ipf = IpfConfig::default();
    let swg = swg_config();
    format!(
        "parallelism={PARALLELISM} optimizer=on agg_partitions={AGG_PARTITIONS} \
         result_cache_mb={RESULT_CACHE_MB} ipf.max_iterations={} ipf.tolerance={:e} \
         open=m-swg(epochs={}, steps_per_epoch={:?}, projections={}, batch={}, coverage_subsample={}) \
         open.num_generated={OPEN_REPLICATES} open.rows_per_sample={OPEN_ROWS}",
        ipf.max_iterations,
        ipf.tolerance,
        swg.epochs,
        swg.steps_per_epoch,
        swg.projections,
        swg.batch_size,
        swg.coverage_subsample
    )
}

/// splitmix64: a tiny deterministic PRNG, so every seed draws the same
/// op stream on every machine.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` id.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

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

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// Uniform index below `n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.index(i + 1));
        }
    }
}

/// An op stream with exact class proportions: each block holds every
/// class `counts[c]` times, in a seeded order. Percentiles over a mix of
/// classes with very different costs then land in the same class on
/// every seed instead of jumping between them.
pub struct BlockMix {
    rng: Rng,
    block: Vec<usize>,
    pos: usize,
}

impl BlockMix {
    /// A mix of `counts.len()` classes.
    pub fn new(rng: Rng, counts: &[usize]) -> BlockMix {
        let block = counts
            .iter()
            .enumerate()
            .flat_map(|(class, &n)| std::iter::repeat_n(class, n))
            .collect::<Vec<_>>();
        let pos = block.len();
        BlockMix { rng, block, pos }
    }

    /// The next class.
    pub fn next_class(&mut self) -> usize {
        if self.pos == self.block.len() {
            self.rng.shuffle(&mut self.block);
            self.pos = 0;
        }
        self.pos += 1;
        self.block[self.pos - 1]
    }
}

/// A zipf sampler over `n` ranks: rank `k` is drawn ∝ 1/(k+1)^s.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Sampler over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draw a rank.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// Digest of a result under loadgen's bit-identity rule: same shape,
/// same column names and types, and equal values (floats by bit
/// pattern). Two results are identical exactly when their digests are,
/// up to a 64-bit hash collision; storing digests instead of tables
/// keeps large results out of the benchmark's own memory.
pub fn digest(t: &Table) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(t.num_rows() as u64);
    h.write_u64(t.num_columns() as u64);
    for field in t.schema().fields() {
        h.write_str(&field.name);
        h.write_str(&format!("{:?}", field.data_type));
    }
    for c in 0..t.num_columns() {
        let col = t.column(c);
        for r in 0..t.num_rows() {
            h.write_value(&col.value(r));
        }
    }
    h.finish()
}

/// Sorted latency samples of one op class, in seconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies(Vec<f64>);

impl Latencies {
    /// Room for `n` samples, written once so the pages are resident
    /// before a run samples its memory: the run's peak RSS then does not
    /// grow with the number of ops it completed.
    pub fn resident(n: usize) -> Latencies {
        // A non-zero fill writes every page; zeroed memory may not.
        let mut v = vec![1.0; n];
        v.clear();
        Latencies(v)
    }

    /// Record one sample.
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    /// Merge another set of samples.
    pub fn extend(&mut self, other: &Latencies) {
        self.0.extend_from_slice(&other.0);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Nearest-rank percentile in milliseconds (`p` in `[0, 1]`), or
    /// `None` without samples.
    pub fn percentile_ms(&self, p: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        Some(v[((v.len() - 1) as f64 * p).round() as usize] * 1e3)
    }
}

/// Median of a non-empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size over the timed window, sampled from
/// `/proc/self/status` (`VmRSS`) at most every [`RssPeak::EVERY`]. Set-up
/// and the benchmark's own input copies come before the window, so they
/// do not count.
#[derive(Debug)]
pub struct RssPeak {
    last: Instant,
    peak_kb: u64,
}

impl RssPeak {
    /// Sampling period.
    pub const EVERY: Duration = Duration::from_millis(20);

    /// Start tracking with one sample now.
    pub fn start() -> RssPeak {
        RssPeak {
            last: Instant::now(),
            peak_kb: rss_kb(),
        }
    }

    /// Sample if the period has passed.
    pub fn poll(&mut self) {
        if self.last.elapsed() >= Self::EVERY {
            self.last = Instant::now();
            self.peak_kb = self.peak_kb.max(rss_kb());
        }
    }

    /// The peak in MB, including one last sample.
    pub fn finish_mb(mut self) -> f64 {
        self.peak_kb = self.peak_kb.max(rss_kb());
        self.peak_kb as f64 / 1024.0
    }
}

fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// Time `f`, returning its value and elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Repeat a set-up, keeping the last one's product and every time: at
/// least [`SETUP_MIN_REPEATS`] times, and a cheap one until
/// [`SETUP_MIN_SECONDS`] have gone into it. `input` makes each set-up's
/// inputs outside the timed part.
pub fn repeated_setup<I, T>(
    mut input: impl FnMut() -> I,
    mut setup: impl FnMut(I) -> T,
) -> (T, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPEATS
        || (times.iter().sum::<f64>() < SETUP_MIN_SECONDS && times.len() < SETUP_MAX_REPEATS)
    {
        // Drop the previous set-up first, so repeats do not stack memory.
        drop(last.take());
        let inputs = input();
        let (product, secs) = timed(|| setup(inputs));
        times.push(secs);
        last = Some(product);
    }
    (last.expect("at least one set-up ran"), times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_core::{DataType, Field, Schema, TableBuilder, Value};

    fn table(name: &str, v: Value) -> Table {
        let mut b = TableBuilder::new(Schema::new(vec![Field::new(name, DataType::Float)]));
        b.push_row(vec![v]).unwrap();
        b.finish()
    }

    #[test]
    fn digest_follows_bit_identity() {
        let a = table("x", Value::Float(1.0));
        assert_eq!(digest(&a), digest(&table("x", Value::Float(1.0))));
        assert_ne!(digest(&a), digest(&table("y", Value::Float(1.0))), "name");
        assert_ne!(digest(&a), digest(&table("x", Value::Null)), "NULL");
        assert_ne!(
            digest(&table("x", Value::Float(0.0))),
            digest(&table("x", Value::Float(-0.0))),
            "floats compare by bit pattern"
        );
    }

    #[test]
    fn block_mix_keeps_exact_shares() {
        let mut mix = BlockMix::new(Rng::new(3, 0), &[9, 9, 2]);
        let mut counts = [0; 3];
        for _ in 0..200 {
            counts[mix.next_class()] += 1;
        }
        assert_eq!(counts, [90, 90, 20]);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut l = Latencies::default();
        for ms in 1..=100 {
            l.push(Duration::from_millis(ms));
        }
        assert_eq!(l.percentile_ms(0.5), Some(51.0));
        assert_eq!(l.percentile_ms(0.95), Some(95.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}

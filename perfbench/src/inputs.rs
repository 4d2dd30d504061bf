//! Seeded input generation: a small deterministic RNG, a skewed popularity sampler, random
//! connected join graphs written as `.jg` text, and statistics drift applied to `.jg` text.
//!
//! Everything here depends only on the seed it is given, so one seed always yields the same
//! inputs.

use std::fmt::Write;

/// SplitMix64: tiny, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
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

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// `10^x` for `x` uniform in `[lo, hi)`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        10f64.powf(lo + (hi - lo) * self.unit())
    }
}

/// Zipf-distributed picks over `0..n`: item `k` has weight `1 / (k + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|k| {
                total += 1.0 / ((k + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty support");
        let u = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// A random connected join graph over `n ≥ 3` relations as `.jg` text: a random spanning
/// tree, up to `n / 2` extra simple edges, sometimes one complex-predicate hyperedge, and seeded
/// cardinalities and selectivities. `option` lines (such as a pair budget) are appended
/// verbatim.
pub fn random_shape_jg(rng: &mut Rng, name: &str, n: usize, options: &[String]) -> String {
    let mut text = format!("query {name} {{\n");
    for r in 0..n {
        let card = rng.log_uniform(1.0, 7.0).round();
        writeln!(text, "  relation r{r} cardinality={card}").expect("write to String");
    }
    let sel = |rng: &mut Rng| rng.log_uniform(-6.0, -1.0);
    for r in 1..n {
        let parent = rng.below(r);
        let s = sel(rng);
        writeln!(text, "  join r{parent} -- r{r} selectivity={s:e}").expect("write to String");
    }
    for _ in 0..rng.between(1, n / 2) {
        let (a, b) = (rng.below(n), rng.below(n));
        if a != b {
            let s = sel(rng);
            writeln!(text, "  join r{a} -- r{b} selectivity={s:e}").expect("write to String");
        }
    }
    if rng.unit() < 0.3 {
        // {a, b} -- {c} over three distinct relations.
        let a = rng.below(n);
        let b = (a + 1 + rng.below(n - 1)) % n;
        let mut c = rng.below(n);
        while c == a || c == b {
            c = (c + 1) % n;
        }
        let s = sel(rng);
        writeln!(text, "  join {{r{a}, r{b}}} -- {{r{c}}} selectivity={s:e}")
            .expect("write to String");
    }
    for option in options {
        writeln!(text, "  {option}").expect("write to String");
    }
    text.push_str("}\n");
    text
}

/// Rewrites every `cardinality=<number>` in `.jg` text, multiplying the number by a factor
/// drawn per relation from `factor`. The join graph, and so the query's shape, is unchanged.
pub fn drift_cardinalities(
    text: &str,
    rng: &mut Rng,
    mut factor: impl FnMut(&mut Rng) -> f64,
) -> String {
    const KEY: &str = "cardinality=";
    let mut out = String::with_capacity(text.len() + 64);
    let mut rest = text;
    while let Some(at) = rest.find(KEY) {
        let start = at + KEY.len();
        out.push_str(&rest[..start]);
        let len = rest[start..]
            .find(|c: char| c.is_whitespace())
            .unwrap_or(rest.len() - start);
        let value: f64 = rest[start..start + len]
            .parse()
            .expect("corpus cardinalities are numbers");
        let drifted = (value * factor(rng)).max(1.0).round();
        write!(out, "{drifted}").expect("write to String");
        rest = &rest[start + len..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = Rng::new(7, 1);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(Rng::new(7, 2).next_u64(), a[0]);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(10, 1.0);
        let mut r = Rng::new(1, 0);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn random_shapes_parse_and_are_connected() {
        let mut r = Rng::new(3, 0);
        for i in 0..50 {
            let n = r.between(8, 14);
            let text = random_shape_jg(&mut r, &format!("q{i}"), n, &[]);
            let q = qo_ingest::parse_queries(&text).expect("valid .jg");
            assert_eq!(q[0].relation_count(), n);
            let plan = q[0].plan().expect("connected graphs plan");
            assert_eq!(plan.plan.scan_count(), n);
        }
    }

    #[test]
    fn drift_changes_statistics_only() {
        let text = "query q {\n  relation a cardinality=100\n  relation b cardinality=2.5e3\n  \
                    join a -- b selectivity=0.01\n}\n";
        let mut r = Rng::new(1, 0);
        let drifted = drift_cardinalities(text, &mut r, |_| 2.0);
        assert!(drifted.contains("cardinality=200\n"));
        assert!(drifted.contains("cardinality=5000\n"));
        let a = qo_ingest::parse_queries(text).unwrap();
        let b = qo_ingest::parse_queries(&drifted).unwrap();
        assert!(dphyp::same_shape(&a[0].spec, &b[0].spec));
    }
}

//! Golden canonical forms: for every corpus query, a digest of what [`dphyp::canonicalize`]
//! produces — the shape hash (the plan-cache key), the relation and edge relabelings
//! (`to_original`, `edge_to_original`) and the canonical spec itself, statistics included.
//!
//! A second table pins seeded random specs that stress what the corpus has little of:
//! hypernodes, generalized (`flex`) edges, every operator, parallel edges, lateral references
//! and symmetric shapes whose relabeling falls to the id tie-break.
//!
//! The pinned digests were generated before canonicalization was rewritten for speed, and the
//! rewrite must reproduce them bit for bit: a changed digest means a changed cache key, a
//! changed relabeling or a changed canonical spec, and therefore possibly a changed plan.
//! Regenerate them only for a deliberate change of the canonical form (run the test and copy
//! the `actual` table from the failure message).

use dphyp::{canonicalize, QuerySpec};
use qo_plan::JoinOp;
use qo_workloads::corpus::corpus;

/// `(corpus query, digest of its canonical form)`, in corpus order.
const GOLDEN: &[(&str, u64)] = &[
    ("dsb_cross_channel", 0x8117fb465ff9d9c1),
    ("dsb_grand_25", 0xd4b747ea50fe1544),
    ("dsb_inventory", 0xd26bed0ce423e093),
    ("dsb_snow_34", 0x89c8f18e00f37653),
    ("dsb_ss_snowflake", 0x341303067e6a6c2d),
    ("dsb_store_returns", 0xd666208ece61819c),
    ("dsb_wide_72", 0x5e8b3f0a751b14ab),
    ("job_01a", 0x5ae889764464912c),
    ("job_02a", 0x1d0cd4199b74f99f),
    ("job_03a", 0x85ed5311234bbb95),
    ("job_04a", 0x76dff1db3c608114),
    ("job_05c", 0xc67e8c37340fa8ac),
    ("job_06a", 0xcfb6f51943353525),
    ("job_07a", 0x1c19aaba29c70a01),
    ("job_08a", 0x91ea835301084f5b),
    ("job_10a", 0x735aa62582ee1a8a),
    ("job_11a", 0xc3396bfe1fc003f1),
    ("job_12a", 0x1e37ce2ba97b7b79),
    ("job_13a", 0x78942cdc460a935c),
    ("job_14a", 0xbc0f90e186bfc69b),
    ("job_15b", 0xf3fd5a1024e0dc66),
    ("job_16a", 0xffcb55d5b2edbd1c),
    ("job_17a", 0x3f336e0f4e097259),
    ("job_18a", 0xa114ccd47f6fb639),
    ("job_19a", 0x2a2b7a9ff820d91c),
    ("job_20a", 0x7d1bba5e770c5932),
    ("job_21a", 0x2b4e1f8b59d294c0),
    ("job_22a", 0x8e955e6aa952f5bc),
    ("job_23a", 0x8a5f84d2df85a9f0),
    ("job_24a", 0x03c3395229329c42),
    ("job_25c", 0x085998ee676a2abd),
    ("job_26a", 0x8cbc8ce102c73994),
    ("job_28a", 0xd865c0b93bf1f4ad),
    ("job_29a", 0x942d82257f845791),
    ("job_33a", 0x303c76f00af653c6),
    ("job_syn_28", 0x7cc9b338d864185e),
];

/// FNV-1a over the canonical form's `Debug` rendering. `Debug` prints every float in its
/// shortest round-trip form, so equal digests mean bit-equal statistics.
fn digest(canonical: &dphyp::CanonicalQuery) -> u64 {
    let text = format!(
        "{:016x} {:?} {:?} {:?}",
        canonical.shape_hash, canonical.to_original, canonical.edge_to_original, canonical.spec
    );
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn corpus_canonical_forms_match_the_pinned_digests() {
    let actual: Vec<(String, u64)> = corpus()
        .iter()
        .map(|q| (q.name.clone(), digest(&canonicalize(&q.spec))))
        .collect();
    assert_eq!(actual.len(), 36, "the corpus holds 36 queries");
    let table: String = actual
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    let pinned: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(actual, pinned, "canonical forms changed; actual:\n{table}");
}

/// xorshift64*: a self-contained generator, so the digests depend on nothing outside this file.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % bound
    }

    /// Removes up to `k` random relations from `pool`.
    fn take(&mut self, pool: &mut Vec<usize>, k: usize) -> Vec<usize> {
        (0..k.min(pool.len()))
            .map(|_| pool.swap_remove(self.below(pool.len())))
            .collect()
    }
}

/// Seeded random specs: 2–14 relations, simple and complex edges with every operator, some
/// generalized edges, some parallel edges, some lateral references, and repeated statistics
/// so refinement ties are common.
fn random_spec(seed: u64) -> QuerySpec {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let n = 2 + rng.below(13);
    let mut b = QuerySpec::builder(n);
    for r in 0..n {
        b.set_cardinality(r, [10.0, 1000.0, 5e5][rng.below(3)]);
    }
    for r in 1..n {
        if rng.below(5) == 0 {
            b.set_lateral_refs(r, &[rng.below(r)]);
        }
    }
    let edges = n - 1 + rng.below(n + 2);
    for _ in 0..edges {
        let mut pool: Vec<usize> = (0..n).collect();
        let k = 1 + usize::from(rng.below(4) == 0);
        let left = rng.take(&mut pool, k);
        let k = 1 + usize::from(rng.below(4) == 0);
        let right = rng.take(&mut pool, k);
        if right.is_empty() {
            continue;
        }
        let selectivity = [0.01, 0.5, 1.0][rng.below(3)];
        if rng.below(6) == 0 {
            let flex = rng.take(&mut pool, 1);
            if !flex.is_empty() {
                b.add_generalized_edge(&left, &right, &flex, selectivity);
                continue;
            }
        }
        let op = if rng.below(2) == 0 {
            JoinOp::Inner
        } else {
            JoinOp::ALL[rng.below(JoinOp::ALL.len())]
        };
        b.add_edge(&left, &right, selectivity, op);
    }
    b.build()
}

/// Digests of [`random_spec`]`(seed)` for seeds `0..`, in seed order.
const GOLDEN_RANDOM: &[u64] = &[
    0xcc5b55970cfd423a,
    0xfc0be3d71a350bd8,
    0x55d3f4554d9ab003,
    0xf787234d02b2940d,
    0x829e02353ac30244,
    0x836cf1582be19e02,
    0x858a58c6c0d125ec,
    0x6ccd523e92761ee2,
    0xb6a138677a41d01c,
    0xff62db4c7dcd64c0,
    0x28bf5fa5d28446f7,
    0x2834c6d6645bac92,
    0xcdd271b72312b15a,
    0x8f62312e60d36b89,
    0x36325ab703462691,
    0xd48fb01ad89d9183,
    0x088fac507546694b,
    0x729ebe69c71e74d5,
    0x64a385f2c2bf1e4a,
    0x51125dbdca5af9a1,
    0x635391d6ac93f9c9,
    0x7b7e74ebf9372f71,
    0xaec7c8fa1c6f3f76,
    0xa8c8daf99e967451,
    0x44d9a44da7dadcb4,
    0x6dc8db6f80775b2b,
    0xd0b89cae6c8db393,
    0x79b71111243e8215,
    0x6c7c76023d426e81,
    0x671c61f43279170e,
    0x2b2b7349cf0f7a98,
    0x9861c584f315a438,
    0xcea3830f40c777cb,
    0xb379211204ab2df3,
    0xdf6feec415ad4d4f,
    0x2c7ee02836b54921,
    0x68a1f6610fa6fb9d,
    0x338f1bb6a1e53dc5,
    0xfba43d02041ffd01,
    0x9007b20b0750149c,
    0xfa7936ebc868dd06,
    0xc99409c9a1d95f0a,
    0x856a2c835eb0de95,
    0x2df569d2914bcc43,
    0x2563cc7334379713,
    0x24ceecea3f1f6c01,
    0x37d3f76bf185dfb7,
    0x4e504d4fa47e0332,
];

#[test]
fn random_canonical_forms_match_the_pinned_digests() {
    let actual: Vec<u64> = (0..48)
        .map(|s| digest(&canonicalize(&random_spec(s))))
        .collect();
    let table: String = actual
        .iter()
        .map(|d| format!("    0x{d:016x},\n"))
        .collect();
    assert_eq!(
        actual, GOLDEN_RANDOM,
        "canonical forms changed; actual:\n{table}"
    );
}

//! Datasets and query sets for the sweep driver.

use seal_core::{ObjectStore, Query, RoiObject};
use seal_datagen::{
    generate_queries, twitter_like, usa_like, Dataset, QueryParams, QuerySpec, TwitterParams,
    UsaParams,
};
use seal_text::TokenSet;
use std::sync::Arc;

/// Scale knobs `repro` accepts on its command line.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Number of objects (paper: 1,000,000; default here 50,000 so the
    /// full sweep runs in minutes — pass `--objects 1000000` for the
    /// paper scale).
    pub objects: usize,
    /// Queries per workload (paper: 100).
    pub queries: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            objects: 50_000,
            queries: 100,
            seed: 2012,
        }
    }
}

impl BenchConfig {
    /// Parses `--objects N`, `--queries N`, `--seed N` from argv.
    pub fn from_args() -> Self {
        let mut cfg = BenchConfig::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i + 1 < args.len() {
            match args[i].as_str() {
                "--objects" => cfg.objects = args[i + 1].parse().expect("--objects N"),
                "--queries" => cfg.queries = args[i + 1].parse().expect("--queries N"),
                "--seed" => cfg.seed = args[i + 1].parse().expect("--seed N"),
                _ => {}
            }
            i += 1;
        }
        cfg
    }
}

/// The Twitter-like dataset at the configured scale.
pub fn twitter(cfg: &BenchConfig) -> Dataset {
    let (count, seed) = (cfg.objects, cfg.seed);
    twitter_like(&TwitterParams {
        count,
        seed,
        ..TwitterParams::default()
    })
}

/// The USA-like dataset at the configured scale.
pub fn usa(cfg: &BenchConfig) -> Dataset {
    let (count, seed) = (cfg.objects, cfg.seed);
    usa_like(&UsaParams {
        count,
        seed,
        ..UsaParams::default()
    })
}

/// Builds the object store from a generated dataset.
pub fn build_store(dataset: &Dataset) -> Arc<ObjectStore> {
    let objects = dataset
        .objects
        .iter()
        .map(|o| RoiObject::new(o.region, TokenSet::from_ids(o.tokens.iter().copied())))
        .collect();
    Arc::new(ObjectStore::from_objects(objects, dataset.vocab_size))
}

/// `cfg.queries` queries of the paper's large- or small-region
/// workload over `d`, at thresholds `(τ_R, τ_T)`.
pub fn queries(d: &Dataset, spec: QuerySpec, cfg: &BenchConfig, taus: (f64, f64)) -> Vec<Query> {
    let seed = cfg.seed ^ 0xABCD;
    let count = cfg.queries;
    generate_queries(d, &QueryParams { spec, count, seed })
        .iter()
        .map(|r| {
            Query::with_token_ids(r.region, r.tokens.iter().copied(), taus.0, taus.1)
                .expect("thresholds in (0,1]")
        })
        .collect()
}

//! The Twitter-like dataset generator.
//!
//! Properties reproduced from the paper's Section 6.1 description:
//!
//! * 1M user ROIs (scaled by `count`), average region area ≈ 115 km²,
//!   entire space ≈ 1342 million km².
//! * Published region-size quantiles: ≤0.0001 km²: 4.4%, ≤0.01: 15.4%,
//!   ≤1: 29.7%, ≤100: 73% — we sample areas from a piecewise
//!   log-uniform distribution fitted to those break-points, with the
//!   top segment's upper bound (1000 km²) chosen so the mean lands at
//!   ≈115 km².
//! * Users cluster spatially (tweets concentrate in cities) — centres
//!   are drawn from Gaussian population clusters whose weights are
//!   Zipf-distributed, so some grid cells carry very long inverted
//!   lists, exactly the skew the threshold-aware pruning exploits.
//! * Token sets: average 14.3 tokens, global Zipf frequencies with
//!   per-cluster topic locality (users in one city share local terms).

use crate::{Dataset, RawObject, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seal_geom::Rect;
use seal_text::TokenId;

/// Tuning knobs for the Twitter-like generator.
#[derive(Debug, Clone)]
pub struct TwitterParams {
    /// Number of objects.
    pub count: usize,
    /// RNG seed.
    pub seed: u64,
    /// Side of the (square) data space in km. The paper's space is
    /// ~1342 million km² → side ≈ 36,633 km.
    pub space_km: f64,
    /// Number of population clusters. `0` (the default) means
    /// *auto-scale with `count`* so per-cluster density matches the
    /// paper's 1M-object dataset (~5000 users per city): the filters'
    /// workload is driven by how many ROIs pile up in one place, and
    /// that must not dilute when the benchmark runs at reduced scale.
    pub clusters: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Mean tokens per object (paper: 14.3).
    pub mean_tokens: f64,
    /// Fraction of users generated as *echoes* of an earlier user:
    /// near-identical region (±10% jitter) and mostly-shared token set.
    /// Real Twitter profiles cluster this way (users of one city share
    /// the city MBR and its vocabulary), and it is what makes the
    /// paper's profile-anchored queries have non-empty answers at
    /// τ = 0.4.
    pub echo_fraction: f64,
}

impl Default for TwitterParams {
    fn default() -> Self {
        TwitterParams {
            count: 100_000,
            seed: TwitterParams::DEFAULT_SEED,
            space_km: 36_633.0,
            clusters: 0,
            vocab: 50_000,
            mean_tokens: 14.3,
            echo_fraction: 0.25,
        }
    }
}

impl TwitterParams {
    /// The effective cluster count (resolves the auto-scale default).
    pub fn effective_clusters(&self) -> usize {
        if self.clusters > 0 {
            self.clusters
        } else {
            (self.count / 5_000).clamp(10, 400)
        }
    }
}

/// Base seed shared by the generators (an arbitrary recognizable
/// constant).
const SEAL_BASE_SEED: u64 = 0x5EA1_2012;

/// The paper's region-area quantile table, as (upper-bound km²,
/// cumulative fraction) break-points, extended by the fitted 1000 km²
/// maximum.
const AREA_BREAKPOINTS: &[(f64, f64)] = &[
    (1e-6, 0.0),
    (1e-4, 0.044),
    (1e-2, 0.154),
    (1.0, 0.297),
    (100.0, 0.73),
    (1000.0, 1.0),
];

/// Samples a region area (km²) from the piecewise log-uniform fit.
fn sample_area<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u: f64 = rng.gen();
    for w in AREA_BREAKPOINTS.windows(2) {
        let (lo, clo) = w[0];
        let (hi, chi) = w[1];
        if u <= chi {
            let t = (u - clo) / (chi - clo);
            return lo * (hi / lo).powf(t);
        }
    }
    AREA_BREAKPOINTS.last().expect("non-empty table").0
}

struct Cluster {
    cx: f64,
    cy: f64,
    sigma: f64,
    topic_base: u32,
}

/// Generates the Twitter-like dataset.
pub fn twitter_like(params: &TwitterParams) -> Dataset {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let side = params.space_km;
    let clusters: Vec<Cluster> = (0..params.effective_clusters().max(1))
        .map(|i| Cluster {
            cx: rng.gen::<f64>() * side,
            cy: rng.gen::<f64>() * side,
            sigma: 10.0 + rng.gen::<f64>() * 60.0,
            topic_base: (i as u32 * 37) % params.vocab.max(1) as u32,
        })
        .collect();
    let cluster_pick = Zipf::new(clusters.len(), 1.0);
    let token_zipf = Zipf::new(params.vocab.max(1), 1.0);
    let local_span = 500u32.min(params.vocab.max(1) as u32);

    let mut objects: Vec<RawObject> = Vec::with_capacity(params.count);
    for _ in 0..params.count {
        // Echo users: copy an earlier profile with light jitter.
        if !objects.is_empty() && rng.gen::<f64>() < params.echo_fraction {
            let src = objects[rng.gen_range(0..objects.len())].clone();
            objects.push(echo_of(&src, &token_zipf, &mut rng, side));
            continue;
        }
        let c = &clusters[cluster_pick.sample(&mut rng)];
        // Box–Muller Gaussian offsets around the cluster centre.
        let (g1, g2) = gaussian_pair(&mut rng);
        let cx = (c.cx + g1 * c.sigma).clamp(0.0, side);
        let cy = (c.cy + g2 * c.sigma).clamp(0.0, side);
        let area = sample_area(&mut rng);
        // Log-uniform aspect ratio in [1/4, 4].
        let aspect = 0.25 * 16.0f64.powf(rng.gen::<f64>());
        let w = (area * aspect).sqrt().min(side);
        let h = (area / aspect).sqrt().min(side);
        let x0 = (cx - w / 2.0).clamp(0.0, side - w);
        let y0 = (cy - h / 2.0).clamp(0.0, side - h);
        let region = Rect::new(x0, y0, x0 + w, y0 + h).expect("generated rect is valid");

        // Token count: geometric-ish around the mean, at least 1.
        let n_tokens = sample_count(&mut rng, params.mean_tokens);
        let mut tokens = Vec::with_capacity(n_tokens);
        for _ in 0..n_tokens {
            let id = if rng.gen::<f64>() < 0.7 {
                token_zipf.sample(&mut rng) as u32
            } else {
                // Topic locality: a contiguous local vocabulary window.
                (c.topic_base + rng.gen_range(0..local_span)) % params.vocab.max(1) as u32
            };
            tokens.push(TokenId(id));
        }
        objects.push(RawObject { region, tokens });
    }
    Dataset {
        objects,
        vocab_size: params.vocab,
        name: "twitter-like",
    }
}

/// An echo of an existing profile: region corners jittered by up to
/// ±10% of the source's extents, ~80% of the source's tokens kept, plus
/// a couple of fresh corpus draws.
fn echo_of<R: Rng + ?Sized>(
    src: &RawObject,
    token_zipf: &Zipf,
    rng: &mut R,
    side: f64,
) -> RawObject {
    let w = src.region.width().max(1e-4);
    let h = src.region.height().max(1e-4);
    let jit = |rng: &mut R, extent: f64| (rng.gen::<f64>() - 0.5) * 0.2 * extent;
    let x0 = (src.region.min().x + jit(rng, w)).clamp(0.0, side);
    let y0 = (src.region.min().y + jit(rng, h)).clamp(0.0, side);
    let x1 = (src.region.max().x + jit(rng, w)).clamp(0.0, side);
    let y1 = (src.region.max().y + jit(rng, h)).clamp(0.0, side);
    let region =
        Rect::new(x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1)).expect("jittered rect is valid");
    let mut tokens: Vec<TokenId> = src
        .tokens
        .iter()
        .copied()
        .filter(|_| rng.gen::<f64>() < 0.8)
        .collect();
    for _ in 0..2 {
        tokens.push(TokenId(token_zipf.sample(rng) as u32));
    }
    RawObject { region, tokens }
}

/// A pair of independent standard Gaussians (Box–Muller).
fn gaussian_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    let r = (-2.0 * u1.ln()).sqrt();
    let th = 2.0 * std::f64::consts::PI * u2;
    (r * th.cos(), r * th.sin())
}

/// Token-count sampler: 1 + Binomial-ish spread around `mean`.
fn sample_count<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> usize {
    let lo = (mean * 0.4).max(1.0);
    let hi = mean * 1.6;
    (lo + rng.gen::<f64>() * (hi - lo)).round() as usize
}

impl TwitterParams {
    /// The default seed.
    pub const DEFAULT_SEED: u64 = SEAL_BASE_SEED ^ 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TwitterParams {
        TwitterParams {
            count: 5_000,
            seed: 42,
            ..TwitterParams::default()
        }
    }

    #[test]
    fn determinism() {
        let a = twitter_like(&small());
        let b = twitter_like(&small());
        assert_eq!(a.objects, b.objects);
    }

    #[test]
    fn area_quantiles_match_paper() {
        let d = twitter_like(&TwitterParams {
            count: 40_000,
            seed: 7,
            ..TwitterParams::default()
        });
        let mut areas: Vec<f64> = d.objects.iter().map(|o| o.region.area()).collect();
        areas.sort_by(f64::total_cmp);
        let frac_leq = |x: f64| areas.partition_point(|&a| a <= x) as f64 / areas.len() as f64;
        assert!((frac_leq(1e-4) - 0.044).abs() < 0.01, "{}", frac_leq(1e-4));
        assert!((frac_leq(1e-2) - 0.154).abs() < 0.015, "{}", frac_leq(1e-2));
        assert!((frac_leq(1.0) - 0.297).abs() < 0.02, "{}", frac_leq(1.0));
        assert!((frac_leq(100.0) - 0.73).abs() < 0.02, "{}", frac_leq(100.0));
    }

    #[test]
    fn mean_area_is_near_115() {
        let d = twitter_like(&TwitterParams {
            count: 60_000,
            seed: 3,
            ..TwitterParams::default()
        });
        let mean = d.avg_region_area();
        assert!((70.0..170.0).contains(&mean), "mean area {mean}");
    }

    #[test]
    fn token_counts_near_mean() {
        let d = twitter_like(&small());
        let avg = d.avg_token_count();
        assert!((11.0..18.0).contains(&avg), "avg tokens {avg}");
        assert!(d.objects.iter().all(|o| !o.tokens.is_empty()));
    }

    #[test]
    fn regions_inside_space() {
        let p = small();
        let d = twitter_like(&p);
        let space = Rect::new(0.0, 0.0, p.space_km, p.space_km).unwrap();
        for o in &d.objects {
            assert!(space.contains_rect(&o.region));
        }
    }

    #[test]
    fn token_frequencies_are_skewed() {
        let d = twitter_like(&small());
        let mut counts = vec![0u32; 50_000];
        for o in &d.objects {
            for t in &o.tokens {
                counts[t.0 as usize] += 1;
            }
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Zipf skew: the top token is much more frequent than rank 100.
        assert!(counts[0] > 4 * counts[100].max(1));
    }

    #[test]
    fn echoes_create_genuinely_similar_pairs() {
        let d = twitter_like(&TwitterParams {
            count: 4_000,
            seed: 21,
            ..TwitterParams::default()
        });
        // There must exist pairs with spatial Jaccard ≥ 0.5 — the
        // cohort structure that gives τ=0.4 queries non-empty answers.
        let mut found = 0;
        'outer: for (i, a) in d.objects.iter().enumerate() {
            for b in d.objects.iter().skip(i + 1).take(400) {
                if a.region.jaccard(&b.region) >= 0.5 {
                    found += 1;
                    if found >= 5 {
                        break 'outer;
                    }
                }
            }
        }
        assert!(found >= 5, "only {found} similar pairs found");
    }

    #[test]
    fn zero_echo_fraction_disables_echoes() {
        let d = twitter_like(&TwitterParams {
            count: 1_000,
            seed: 3,
            echo_fraction: 0.0,
            ..TwitterParams::default()
        });
        assert_eq!(d.objects.len(), 1_000);
    }

    #[test]
    fn cluster_autoscaling() {
        let small = TwitterParams {
            count: 20_000,
            ..TwitterParams::default()
        };
        let paper = TwitterParams {
            count: 1_000_000,
            ..TwitterParams::default()
        };
        assert_eq!(small.effective_clusters(), 10);
        assert_eq!(paper.effective_clusters(), 200, "paper scale → 200 cities");
        let manual = TwitterParams {
            clusters: 77,
            ..TwitterParams::default()
        };
        assert_eq!(manual.effective_clusters(), 77);
    }

    #[test]
    fn spatial_clustering_present() {
        // Compare object density in the busiest 1/64 of space to the
        // average: clustered data must be far above uniform.
        let p = small();
        let d = twitter_like(&p);
        let mut counts = vec![0u32; 64];
        let cell = p.space_km / 8.0;
        for o in &d.objects {
            let c = o.region.center();
            let ix = ((c.x / cell) as usize).min(7);
            let iy = ((c.y / cell) as usize).min(7);
            counts[iy * 8 + ix] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let avg = d.objects.len() as f64 / 64.0;
        assert!(max > 2.0 * avg, "no clustering: max {max} vs avg {avg}");
    }
}

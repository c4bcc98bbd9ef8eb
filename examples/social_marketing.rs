//! Location-based social marketing (the paper's first motivating
//! application, Section 1): a coffee shop holds a service area and a
//! product vocabulary, and wants the mobile-user profiles whose active
//! regions overlap its service area and whose interest tags match its
//! products.
//!
//! Run with: `cargo run --release --example social_marketing`

use seal_core::{FilterKind, ObjectStore, Query, RoiObject, SealEngine};
use seal_datagen::{twitter_like, TwitterParams};
use seal_text::TokenSet;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // Synthesize 50k "user profiles": active regions + interest tags
    // (the Twitter-like generator reproduces the paper's region-size
    // skew and Zipf tag frequencies).
    let dataset = twitter_like(&TwitterParams {
        count: 50_000,
        seed: 2012,
        ..TwitterParams::default()
    });
    let vocab = dataset.vocab_size;
    let objects: Vec<RoiObject> = dataset
        .objects
        .iter()
        .map(|o| RoiObject::new(o.region, TokenSet::from_ids(o.tokens.iter().copied())))
        .collect();
    let store = Arc::new(ObjectStore::from_objects(objects, vocab));
    println!(
        "user profiles: {}   avg active-region area: {:.1} km²",
        store.len(),
        store.stats().avg_region_area
    );

    // The advertiser: SEAL with hierarchical hybrid signatures.
    let t0 = Instant::now();
    let engine = SealEngine::build(store.clone(), FilterKind::seal_default());
    println!(
        "built {} index in {:.1?} ({:.1} MiB)",
        engine.filter_name(),
        t0.elapsed(),
        engine.index_bytes() as f64 / (1024.0 * 1024.0)
    );

    // The campaign: a service area around a busy profile, advertising
    // a product vocabulary taken from that neighbourhood's own tags
    // (so there are real potential customers). The products are the
    // anchor's most *distinctive* tags — highest idf — which is what a
    // brand vocabulary looks like ("starbucks, mocha" rather than
    // "good, new").
    use seal_text::TokenWeights;
    let anchor = store.get(seal_core::ObjectId(0));
    let service_area = anchor.region.scaled(3.0).expect("valid region");
    let mut by_weight: Vec<seal_text::TokenId> = anchor.tokens.iter().collect();
    by_weight.sort_by(|a, b| {
        store
            .weights()
            .weight(*b)
            .total_cmp(&store.weights().weight(*a))
    });
    let products: Vec<seal_text::TokenId> = by_weight.into_iter().take(6).collect();
    let q = Query::new(
        service_area,
        TokenSet::from_ids(products.iter().copied()),
        0.05, // loose spatial bar: any meaningful overlap with the area
        0.2,  // interest bar: 20% weighted tag similarity
    )
    .expect("valid thresholds");

    let t0 = Instant::now();
    let result = engine.search(&q);
    let elapsed = t0.elapsed();
    println!(
        "campaign targeting: {} candidates → {} matching customers in {elapsed:?} \
         ({} postings scanned)",
        result.stats.candidates,
        result.answers.len(),
        result.stats.postings_scanned,
    );

    // The anchor profile itself always qualifies (its region sits inside
    // the service area with Jaccard 1/9, its tags contain the products).
    assert!(
        result.answers.contains(&seal_core::ObjectId(0)),
        "the anchor customer must match its own campaign"
    );

    // Every reported customer really does overlap the service area and
    // share interests (spot-check the top few).
    for id in result.answers.iter().take(5) {
        let o = store.get(*id);
        let overlap = q.region.intersection_area(&o.region);
        println!(
            "  user {:?}: overlap {:.3} km², {} shared tags",
            id,
            overlap,
            q.tokens.intersection_size(&o.tokens)
        );
        assert!(overlap > 0.0);
    }
}

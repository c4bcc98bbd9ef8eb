//! Friend recommendation in a location-aware social network (the
//! paper's second motivating application, Section 1): for a given user,
//! find other users with overlapping active regions *and* common
//! interests.
//!
//! Run with: `cargo run --release --example friend_recommendation`

use seal_core::{FilterKind, ObjectId, ObjectStore, Query, RoiObject, SealEngine};
use seal_datagen::{twitter_like, TwitterParams};
use seal_text::TokenSet;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let dataset = twitter_like(&TwitterParams {
        count: 30_000,
        seed: 77,
        ..TwitterParams::default()
    });
    let vocab = dataset.vocab_size;
    let objects: Vec<RoiObject> = dataset
        .objects
        .iter()
        .map(|o| RoiObject::new(o.region, TokenSet::from_ids(o.tokens.iter().copied())))
        .collect();
    let store = Arc::new(ObjectStore::from_objects(objects, vocab));

    let seal = SealEngine::build(store.clone(), FilterKind::seal_default());

    // "Recommend friends": a user's own profile becomes the query (drop
    // them from the answers afterwards). Profiles are sparse at this
    // demo scale, so scan forward to the first user who actually has
    // overlapping neighbours — deterministic given the fixed seed.
    let me = (0..store.len() as u32)
        .map(ObjectId)
        .find(|&id| {
            let p = store.get(id);
            let q = Query::new(p.region, p.tokens.clone(), 0.05, 0.1).unwrap();
            seal.search(&q).answers.iter().any(|&a| a != id)
        })
        .expect("some user has at least one potential friend");
    println!("recommending for user {me:?}\n");
    let profile = store.get(me);
    let q =
        Query::new(profile.region, profile.tokens.clone(), 0.05, 0.1).expect("valid thresholds");

    let t0 = Instant::now();
    let result = seal.search(&q);
    let elapsed = t0.elapsed();
    let mut result = result.sorted();
    result.answers.retain(|&id| id != me);
    println!(
        "{:<10} {:>4} friends   {:>8} candidates   {:>8} postings   {elapsed:>9.3?}",
        seal.filter_name(),
        result.answers.len(),
        result.stats.candidates,
        result.stats.postings_scanned,
    );

    let friends = result.answers;
    println!("\ntop recommendations for user {:?}:", me);
    for id in friends.iter().take(5) {
        let o = store.get(*id);
        println!(
            "  user {:?}: {} shared interests, {:.4} spatial Jaccard",
            id,
            q.tokens.intersection_size(&o.tokens),
            q.region.jaccard(&o.region),
        );
    }
}

//! Quickstart: build a SEAL engine over a handful of labeled
//! regions-of-interest and run one spatio-textual similarity query.
//!
//! Run with: `cargo run --example quickstart`

use seal_core::{FilterKind, ObjectStore, Query, SealEngine};
use seal_geom::Rect;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // 1. A tiny collection of ROIs: coffee shops and parks around a
    //    city, each with a service region and descriptive tags.
    let store = ObjectStore::from_labeled(vec![
        (
            rect(0.0, 0.0, 40.0, 40.0),
            vec!["coffee", "mocha", "espresso"],
        ),
        (
            rect(10.0, 10.0, 50.0, 50.0),
            vec!["coffee", "starbucks", "mocha"],
        ),
        (rect(30.0, 30.0, 70.0, 70.0), vec!["tea", "bubble", "boba"]),
        (
            rect(80.0, 80.0, 120.0, 120.0),
            vec!["park", "dogs", "trails"],
        ),
        (rect(82.0, 78.0, 118.0, 119.0), vec!["park", "picnic"]),
    ]);
    let store = Arc::new(store);
    println!(
        "indexed {} objects over space {:?}",
        store.len(),
        store.space()
    );

    // 2. Build the engine with SEAL's hierarchical hybrid signatures.
    let engine = SealEngine::build(
        store.clone(),
        FilterKind::Hierarchical {
            max_level: 6,
            budget: 8,
        },
    );
    println!(
        "engine: {} ({} KiB of index)",
        engine.filter_name(),
        engine.index_bytes() / 1024
    );

    // 3. Query: "who overlaps my neighbourhood and talks about coffee?"
    let dict = store.dictionary().expect("built from labels");
    let q = Query::with_token_ids(
        rect(5.0, 5.0, 45.0, 45.0),
        ["coffee", "mocha"].iter().filter_map(|t| dict.get(t)),
        0.3, // τ_R: at least 30% spatial Jaccard overlap
        0.3, // τ_T: at least 30% weighted textual Jaccard
    )
    .expect("thresholds in (0,1]");

    let t0 = Instant::now();
    let result = engine.search(&q);
    let elapsed = t0.elapsed();
    println!(
        "query produced {} candidates, {} answers in {elapsed:?}",
        result.stats.candidates,
        result.answers.len(),
    );
    for id in &result.answers {
        let o = store.get(*id);
        let tags: Vec<&str> = o.tokens.iter().filter_map(|t| dict.name(t)).collect();
        println!("  answer {:?}: region {:?} tags {:?}", id, o.region, tags);
    }
    assert_eq!(result.answers.len(), 2, "the two coffee shops match");
}

fn rect(a: f64, b: f64, c: f64, d: f64) -> Rect {
    Rect::new(a, b, c, d).expect("valid rectangle")
}

// Positive fixture for `probe-path-clock`: the shape PR 26 removed —
// a filter timing itself into a stats field no benchmark reads.
use std::time::Instant;

pub fn candidates_into(lists: &[Vec<u32>], out: &mut Vec<u32>, stats: &mut Stats) {
    let start = Instant::now();
    for ids in lists {
        stats.postings_scanned += ids.len();
        out.extend_from_slice(ids);
    }
    stats.elapsed += start.elapsed();
}

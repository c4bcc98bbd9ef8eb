// Negative fixture for `probe-path-clock`: the probe counts its work
// and leaves timing to whoever calls it.
pub fn candidates_into(lists: &[Vec<u32>], out: &mut Vec<u32>, stats: &mut Stats) {
    for ids in lists {
        stats.lists_probed += 1;
        stats.postings_scanned += ids.len();
        out.extend_from_slice(ids);
    }
}

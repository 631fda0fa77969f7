//! Clean fixture: scoped sweep with a per-shard ordered merge.

pub fn sweep(shards: &[Vec<u64>]) -> Vec<u64> {
    let mut results: Vec<Option<u64>> = vec![None; shards.len()];
    std::thread::scope(|scope| {
        for (slot, shard) in results.iter_mut().zip(shards) {
            scope.spawn(move || {
                *slot = Some(shard.iter().sum());
            });
        }
    });
    // Shard index order, independent of completion order.
    results.into_iter().flatten().collect()
}

/// Outside the substrate crates, the layer that owns the cores may size
/// its pool from them.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

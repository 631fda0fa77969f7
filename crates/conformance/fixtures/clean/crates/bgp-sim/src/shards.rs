//! Clean fixture: the kernel takes its thread count from the caller,
//! and only test code reads the core count.

pub fn shard_bounds(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let chunk = n.div_ceil(threads.max(1)).max(1);
    (0..n).step_by(chunk).map(|lo| (lo, (lo + chunk).min(n))).collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn one_shard_per_core_covers_everything() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let bounds = super::shard_bounds(10, cores);
        assert_eq!(bounds.last().map(|b| b.1), Some(10));
    }
}

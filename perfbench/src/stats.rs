//! Order statistics for latency samples.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p`% of the sample at or below it. `None` for an
/// empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A latency summary with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    pub p99: f64,
    /// Samples strictly above the p99 value: the guide asks for at least
    /// ten before a tail percentile is trusted.
    pub beyond_p99: usize,
}

impl Summary {
    /// Summarizes an unsorted sample; `None` when it is empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50 = nearest_rank(&sorted, 50.0)?;
        let p99 = nearest_rank(&sorted, 99.0)?;
        let beyond_p99 = sorted.iter().filter(|&&v| v > p99).count();
        Some(Summary {
            samples: sorted.len(),
            p50,
            p99,
            beyond_p99,
        })
    }
}

/// Median of an unsorted sample (nearest rank), 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.p50)
}

/// Fewest requests a block of `block_percentile` holds: at 1000, at
/// least ten samples lie beyond each block's p99.
pub const PERCENTILE_BLOCK: usize = 1000;

/// Blocks of at least `PERCENTILE_BLOCK` consecutive samples out of `n`,
/// and at least one.
pub fn percentile_blocks(n: usize) -> usize {
    (n / PERCENTILE_BLOCK).max(1)
}

/// Nearest-rank `p`th percentile of each of `percentile_blocks` blocks of
/// consecutive samples (`in_order`: as the requests completed), median
/// over the blocks; with fewer samples than one block, the percentile of
/// them all. A slow stretch of a few seconds moves only the blocks it
/// falls in. `None` for an empty sample.
pub fn block_percentile(in_order: &[f64], p: f64) -> Option<f64> {
    let (n, blocks) = (in_order.len(), percentile_blocks(in_order.len()));
    let per_block: Vec<f64> = (0..blocks)
        .filter_map(|i| {
            let mut block = in_order[i * n / blocks..(i + 1) * n / blocks].to_vec();
            block.sort_by(f64::total_cmp);
            nearest_rank(&block, p)
        })
        .collect();
    Summary::of(&per_block).map(|s| s.p50)
}

/// Blocks a measured window is cut into for `median_rate`.
pub const RATE_BLOCKS: usize = 16;

/// Throughput as the median over blocks of consecutive completions: the
/// ascending completion times `done_s` (seconds since the window opened)
/// are cut into up to `RATE_BLOCKS` blocks of equal request count, each
/// block's rate is its requests times `units_per_request` over the time
/// since the previous block ended, and the median rate is returned. A
/// stall of a few seconds slows only the blocks it falls in. `None` when
/// nothing completed.
pub fn median_rate(done_s: &[f64], units_per_request: f64) -> Option<f64> {
    let per_block = (done_s.len() / RATE_BLOCKS).max(1);
    let mut rates = Vec::new();
    let mut previous = 0.0;
    for block in done_s.chunks_exact(per_block) {
        let end = block[block.len() - 1];
        if end > previous {
            rates.push(per_block as f64 * units_per_request / (end - previous));
        }
        previous = end;
    }
    Summary::of(&rates).map(|s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&sorted, 99.0), Some(10.0));
        assert_eq!(nearest_rank(&sorted, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&sorted, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn summary_counts_samples_and_the_tail_beyond_p99() {
        // 1..=2000 shuffled: p99 is the 1980th value, 20 samples lie above.
        let mut values: Vec<f64> = (1..=2000).map(f64::from).collect();
        values.reverse();
        let s = Summary::of(&values).unwrap();
        assert_eq!(s.samples, 2000);
        assert_eq!(s.p50, 1000.0);
        assert_eq!(s.p99, 1980.0);
        assert_eq!(s.beyond_p99, 20);
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn block_percentile_ignores_a_slow_stretch() {
        // Three blocks of 1000 samples 1..=1000; the middle one doubled.
        let base: Vec<f64> = (1..=1000).map(f64::from).collect();
        let mut samples = base.clone();
        samples.extend(base.iter().map(|v| v * 2.0));
        samples.extend(&base);
        assert_eq!(percentile_blocks(samples.len()), 3);
        assert_eq!(block_percentile(&samples, 99.0), Some(990.0));
        assert_eq!(block_percentile(&samples, 50.0), Some(500.0));
        // Under one block: the percentile of the whole sample.
        assert_eq!(block_percentile(&base[..10], 99.0), Some(10.0));
        // A tail shorter than a block joins the last one.
        assert_eq!(percentile_blocks(2999), 2);
        assert_eq!(block_percentile(&[], 50.0), None);
    }

    #[test]
    fn median_rate_ignores_a_stalled_block() {
        // 160 requests, one every 10 ms, but the 6th block of ten took
        // a whole second: each other block runs at 100/s.
        let mut done = Vec::new();
        let mut t = 0.0;
        for i in 0..160 {
            t += if i == 55 { 0.91 } else { 0.01 };
            done.push(t);
        }
        let rate = median_rate(&done, 1.0).unwrap();
        assert!((rate - 100.0).abs() < 1e-6, "{rate}");
        assert!((median_rate(&done, 52.0).unwrap() - 5200.0).abs() < 1e-4);
        // Fewer requests than blocks: one block per request.
        assert!((median_rate(&[0.5, 1.0, 1.5], 2.0).unwrap() - 4.0).abs() < 1e-9);
        assert_eq!(median_rate(&[], 1.0), None);
    }
}

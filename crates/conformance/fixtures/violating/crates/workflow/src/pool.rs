//! Violating fixture: an executor that starts threads of its own under
//! every caller.

pub fn run_steps(steps: &[u64]) -> Vec<u64> {
    let mut results = vec![0; steps.len()];
    std::thread::scope(|scope| {
        for (slot, step) in results.iter_mut().zip(steps) {
            scope.spawn(move || *slot = step * 2);
        }
    });
    results
}

#[cfg(test)]
mod tests {
    // Test code may run concurrent callers: not a finding.
    #[test]
    fn concurrent_callers_agree() {
        let runs: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..2).map(|_| scope.spawn(|| super::run_steps(&[1, 2]))).collect();
            handles.into_iter().map(|h| h.join().unwrap_or_default()).collect()
        });
        assert_eq!(runs[0], runs[1]);
    }
}

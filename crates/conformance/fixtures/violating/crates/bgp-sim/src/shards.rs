//! Violating fixture: a substrate kernel that sizes its own thread pool
//! from the machine's core count.

pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    // Test code may read the core count: not a finding.
    #[test]
    fn core_count_is_positive() {
        assert!(std::thread::available_parallelism().is_ok());
    }
}

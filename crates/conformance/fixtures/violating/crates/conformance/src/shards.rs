//! Violating fixture: a static-analysis pass that shards its files
//! across threads of its own. Only the campaign runner and the benches
//! start threads.

pub fn line_counts(files: &[String]) -> Vec<usize> {
    let mut counts = vec![0; files.len()];
    std::thread::scope(|scope| {
        for (slot, text) in counts.iter_mut().zip(files) {
            scope.spawn(move || *slot = text.lines().count());
        }
    });
    counts
}

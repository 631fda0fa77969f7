//! Clean fixture: errors propagate; no panic sites.

pub fn robust(input: &str) -> Result<u64, String> {
    let Some(first) = input.split(',').next() else {
        return Err("empty input".to_string());
    };
    first.parse().map_err(|e| format!("{first}: {e:?}"))
}

//! Retired half of CM-A013 (dropped-result): a `Result` left as a bare
//! statement. `Result` is `#[must_use]`, and clippy's `-D warnings`
//! makes the lint an error.
//! expect: unused_must_use

pub fn save_counts(x: u32) -> Result<(), String> {
    if x > 0 {
        Ok(())
    } else {
        Err("zero".to_owned())
    }
}

pub fn run(x: u32) {
    save_counts(x);
}

//! Retired half of CM-A013 (dropped-result): a `Result` bound to a name
//! that is never read. clippy's `-D warnings` makes the lint an error.
//! expect: unused_variables

pub fn save_counts(x: u32) -> Result<(), String> {
    if x > 0 {
        Ok(())
    } else {
        Err("zero".to_owned())
    }
}

pub fn run(x: u32) {
    let r = save_counts(x);
}

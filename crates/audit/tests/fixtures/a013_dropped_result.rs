//! Known-bad: the `Result` of a workspace fallible function is discarded
//! by `let _ =` (CM-A013), the one form rustc stays silent on. Propagate
//! with `?`, match on the error, or keep a read binding.

pub fn save_counts(x: u32) -> Result<(), String> {
    if x > 0 {
        Ok(())
    } else {
        Err("zero".to_owned())
    }
}

pub fn run(x: u32) {
    let _ = save_counts(x);
}

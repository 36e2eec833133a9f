//! Fixture: trips exactly CM-L001 (panic-in-lib).
//!
//! Library code unwraps a caller-supplied `Option`: an empty shape
//! aborts the whole process instead of returning a typed error.

pub fn first_extent(dims: &[usize]) -> usize {
    dims.first().copied().unwrap()
}

//! Fixture: trips exactly CM-L006 (alloc-in-chunk-loop).
//!
//! A fresh buffer per chunk allocates on every iteration of the
//! hot lowering loop instead of being hoisted out and cleared.

pub fn widest(chunks: &[Vec<u32>]) -> usize {
    let mut widest = 0;
    for chunk in chunks {
        let mut buf = Vec::new();
        buf.extend_from_slice(chunk);
        widest = widest.max(buf.len());
    }
    widest
}

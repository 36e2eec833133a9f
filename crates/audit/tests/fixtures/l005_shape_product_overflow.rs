//! Fixture: trips exactly CM-L005 (shape-product-overflow).
//!
//! A stride is a product of extents; narrowing it to `u32` truncates
//! once the guest outgrows 2^32 nodes.

pub fn packed_stride(stride: usize) -> u32 {
    stride as u32
}

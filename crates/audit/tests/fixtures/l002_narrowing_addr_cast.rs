//! Fixture: trips exactly CM-L002 (narrowing-addr-cast).
//!
//! Casting a cube address to `u32` silently drops the high bits of
//! every node above `Q_32`.

pub fn low_word(addr: u64) -> u32 {
    addr as u32
}

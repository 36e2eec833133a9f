//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) — the
//! integrity check on every database frame and on the index block.
//!
//! Table-driven, with the table built at compile time; matches the
//! ubiquitous zlib/`cksum -o 3` definition (init `0xFFFF_FFFF`, final
//! xor `0xFFFF_FFFF`), so external tooling can re-verify frames.

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = make_table();

/// A running CRC-32/IEEE: feed the bytes in pieces of any size, then
/// read the CRC of everything fed — for a block streamed through a
/// buffer rather than held whole.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Crc32(u32);

impl Crc32 {
    /// The CRC state before any byte.
    pub(crate) const fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Feed the next `bytes`.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = TABLE[usize::from((self.0 as u8) ^ b)] ^ (self.0 >> 8);
        }
    }

    /// The CRC of every byte fed so far.
    pub(crate) fn value(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// CRC-32/IEEE of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        // Published CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn pieces_of_any_size_give_the_one_shot_crc() {
        let bytes = b"The quick brown fox jumps over the lazy dog";
        for cut in 0..=bytes.len() {
            let mut crc = Crc32::new();
            crc.update(&bytes[..cut]);
            crc.update(&[]);
            crc.update(&bytes[cut..]);
            assert_eq!(crc.value(), 0x414F_A339, "cut at {cut}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = crc32(b"plan database frame payload");
        let mut bytes = b"plan database frame payload".to_vec();
        bytes[7] ^= 0x20;
        assert_ne!(crc32(&bytes), base);
    }
}

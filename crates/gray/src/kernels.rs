//! Bit-parallel batch kernels over packed `u64` lanes.
//!
//! The scalar BRGC primitives in [`crate::code`] are a handful of ALU ops
//! each; what costs money at paper scale is calling them through
//! per-node coordinate machinery. These kernels process contiguous runs
//! — an innermost-axis sweep of Gray mesh addresses, a Hamming total over
//! paired lanes — with 4-wide unrolled loops so the work pipelines
//! as pure register arithmetic (no branches, no lookup tables). They
//! back the chunked lowering fast path in `cubemesh-embedding` and the
//! `gray_kernel` micro-bench rungs in `cubemesh-bench`.

use crate::code::{gray, gray_inverse};

/// Fill one innermost-axis run of Gray mesh addresses:
/// `out[j] = base | (gray(start + j) << shift)`.
///
/// `base` carries the (Gray-encoded, already shifted) contribution of
/// every outer axis, which is constant along the run — the batch form of
/// [`crate::axis::gray_mesh_address`] restricted to the last axis.
pub fn gray_fill_run(out: &mut [u64], start: u64, base: u64, shift: u32) {
    let mut x = start;
    let mut lanes = out.chunks_exact_mut(4);
    for lane in &mut lanes {
        lane[0] = base | (gray(x) << shift);
        lane[1] = base | (gray(x + 1) << shift);
        lane[2] = base | (gray(x + 2) << shift);
        lane[3] = base | (gray(x + 3) << shift);
        x += 4;
    }
    for o in lanes.into_remainder() {
        *o = base | (gray(x) << shift);
        x += 1;
    }
}

/// Batch Gray decode in place: `vals[j] = gray_inverse(vals[j])`.
pub fn gray_inverse_fill(vals: &mut [u64]) {
    let mut lanes = vals.chunks_exact_mut(4);
    for lane in &mut lanes {
        lane[0] = gray_inverse(lane[0]);
        lane[1] = gray_inverse(lane[1]);
        lane[2] = gray_inverse(lane[2]);
        lane[3] = gray_inverse(lane[3]);
    }
    for v in lanes.into_remainder() {
        *v = gray_inverse(*v);
    }
}

/// Total Hamming distance between two equal-length lanes of packed
/// addresses: `Σ popcount(xs[j] ^ ys[j])`. Four independent accumulators
/// keep the XOR+popcount chains pipelined.
pub fn hamming_total(xs: &[u64], ys: &[u64]) -> u64 {
    debug_assert_eq!(xs.len(), ys.len());
    let n = xs.len().min(ys.len());
    let (mut a0, mut a1, mut a2, mut a3) = (0u64, 0u64, 0u64, 0u64);
    let mut j = 0;
    while j + 4 <= n {
        a0 += u64::from((xs[j] ^ ys[j]).count_ones());
        a1 += u64::from((xs[j + 1] ^ ys[j + 1]).count_ones());
        a2 += u64::from((xs[j + 2] ^ ys[j + 2]).count_ones());
        a3 += u64::from((xs[j + 3] ^ ys[j + 3]).count_ones());
        j += 4;
    }
    while j < n {
        a0 += u64::from((xs[j] ^ ys[j]).count_ones());
        j += 1;
    }
    a0 + a1 + a2 + a3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_run_matches_scalar_for_all_lengths() {
        for n in 0..37 {
            let mut out = vec![0u64; n];
            gray_fill_run(&mut out, 5, 0b1010 << 20, 3);
            for (j, &got) in out.iter().enumerate() {
                assert_eq!(
                    got,
                    (0b1010 << 20) | (gray(5 + j as u64) << 3),
                    "n={n} j={j}"
                );
            }
        }
    }

    #[test]
    fn inverse_fill_round_trips() {
        let mut vals: Vec<u64> = (0..100).map(gray).collect();
        gray_inverse_fill(&mut vals);
        let want: Vec<u64> = (0..100).collect();
        assert_eq!(vals, want);
    }

    #[test]
    fn hamming_total_matches_scalar() {
        let xs: Vec<u64> = (0..67u64)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15))
            .collect();
        let ys: Vec<u64> = (0..67u64)
            .map(|i| i.wrapping_mul(0xc2b2ae3d27d4eb4f).wrapping_add(7))
            .collect();
        let want: u64 = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| u64::from((x ^ y).count_ones()))
            .sum();
        assert_eq!(hamming_total(&xs, &ys), want);
    }
}

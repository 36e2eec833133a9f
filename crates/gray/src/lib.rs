//! Binary-reflected Gray codes (BRGC) and Gray-code axis embeddings.
//!
//! The Gray-code embedding (§3.1 of the paper; references \[3], \[15], \[16],
//! \[22]) encodes each mesh axis independently: axis `i` of length `ℓᵢ` gets
//! `nᵢ = ⌈log₂ ℓᵢ⌉` cube dimensions and coordinate `xᵢ` maps to the
//! `nᵢ`-bit code `G(xᵢ)`. Consecutive codes differ in one bit, so every mesh
//! edge has dilation one; the cost is expansion `Π 2^{nᵢ} / Π ℓᵢ`, minimal
//! only when `Σ nᵢ = ⌈log₂ Π ℓᵢ⌉` (Theorem 1, Havel & Móravek).
//!
//! This crate provides the codes themselves plus the *reflected* variant
//! `G̃(y, x)` used in the product-embedding construction of §4.1, and
//! dilation-one ring codes for even cycles (needed by the wraparound
//! embeddings of §6).

#![forbid(unsafe_code)]

pub mod axis;
pub mod code;
pub mod kernels;
pub mod ring;

pub use axis::{gray_mesh_address, gray_mesh_address_reflected, AxisLayout};
pub use code::{gray, gray_inverse, gray_reflected};
pub use kernels::{gray_fill_run, gray_inverse_fill, hamming_total};
pub use ring::even_ring_code;

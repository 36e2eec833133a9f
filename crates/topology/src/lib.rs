//! Graph substrate for Boolean-cube mesh embeddings.
//!
//! This crate provides the host and guest graph families used throughout the
//! reproduction of Ho & Johnsson, *Embedding Three-Dimensional Meshes in
//! Boolean Cubes by Graph Decomposition* (ICPP 1990):
//!
//! * [`Hypercube`] — the Boolean `n`-cube `Q_n` (host graphs),
//! * [`Mesh`] — `ℓ₁ × ℓ₂ × ⋯ × ℓ_k` meshes without wraparound (guest graphs),
//! * [`Torus`] — meshes with wraparound (guest graphs of §6 of the paper),
//! * [`Graph`] — a compact CSR representation with BFS utilities, into which
//!   every family converts, plus [`product`] for Cartesian products
//!   (Definition 4 of the paper).
//!
//! The crate is dependency-free and deliberately small-footprint: node ids
//! are `usize` indices, cube addresses are `u64` bit strings, and shapes are
//! thin wrappers over `Vec<usize>` with row-major (last-axis-fastest) linear
//! indexing provided by [`Shape`].

#![forbid(unsafe_code)]

pub mod graph;
pub mod hamming;
pub mod hypercube;
pub mod mesh;
pub mod product;
pub mod shape;
pub mod torus;

pub use graph::{Graph, GraphError};
pub use hamming::{ceil_pow2, cube_dim, hamming, is_pow2};
pub use hypercube::Hypercube;
pub use mesh::{Mesh, MeshEdge};
pub use product::product;
pub use shape::{Shape, ShapeError};
pub use torus::{Torus, TorusEdge};

//! The decomposition-plan IR.
//!
//! A [`Plan`] records *how* a mesh is to be embedded, mirroring §4.2 of the
//! paper: Gray-code it whole, take it from the direct catalog, or write it
//! as (a subgraph of) a product of two planned factor meshes per
//! Corollary 2. Plans are built by [`crate::planner::Planner`] and lowered
//! to embeddings by [`crate::construct::construct`].
//!
//! Plans are expressed on *reduced* shapes (length-1 axes dropped); the
//! construct step lifts the result back to the caller's rank, which is free
//! because length-1 axes change neither linear indices nor edge sets.

use cubemesh_search::catalog_lookup;
use cubemesh_topology::Shape;
use std::fmt;

/// How to embed one (reduced-rank) mesh.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Plan {
    /// Binary-reflected Gray code on every axis (dilation 1).
    Gray,
    /// A baked direct embedding from the search catalog (dilation ≤ 2,
    /// congestion ≤ 2, minimal cube).
    Direct,
    /// Corollary 2: the mesh is a subgraph of `f1 ⊙ f2` (per-axis
    /// products, `shape ≤ f1 ⊙ f2` axiswise); embed the factors with the
    /// sub-plans and compose with the reflected product construction.
    Product {
        /// First factor shape (same rank as the planned shape).
        f1: Shape,
        /// Plan for `f1` (on its reduced shape).
        p1: Box<Plan>,
        /// Second factor shape.
        f2: Shape,
        /// Plan for `f2` (on its reduced shape).
        p2: Box<Plan>,
    },
}

impl Plan {
    /// Host-cube dimension this plan produces for `shape`.
    ///
    /// A `Direct` node whose shape is absent from the catalog (a
    /// malformed plan tree; planner output never is) falls back to the
    /// minimal cube dimension, which is where every catalog embedding
    /// lands anyway.
    pub fn host_dim(&self, shape: &Shape) -> u32 {
        match self {
            Plan::Gray => shape.gray_cube_dim(),
            Plan::Direct => {
                let reduced = reduce(shape);
                catalog_lookup(&reduced)
                    .map(|(e, _)| e.host_dim)
                    .unwrap_or_else(|| reduced.minimal_cube_dim())
            }
            Plan::Product { f1, p1, f2, p2 } => p1.host_dim(f1) + p2.host_dim(f2),
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Plan::Gray => write!(f, "gray"),
            Plan::Direct => write!(f, "direct"),
            Plan::Product { f1, p1, f2, p2 } => {
                write!(f, "({} as {}) x ({} as {})", f1, p1, f2, p2)
            }
        }
    }
}

/// Why a canonical plan string failed to parse. The offset is a byte
/// position into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanParseError {
    /// Input ended while a production was still open.
    UnexpectedEnd {
        /// What the parser was looking for.
        expected: &'static str,
    },
    /// An unexpected byte where a production had to start or continue.
    Unexpected {
        /// Byte offset of the offending character.
        offset: usize,
        /// What the parser was looking for.
        expected: &'static str,
    },
    /// A shape token named an extent outside `1..=Shape::MAX_AXIS`, or
    /// the extents multiply past `Shape::MAX_NODES`.
    BadShape {
        /// Byte offset where the shape token started.
        offset: usize,
    },
    /// Parsing consumed a valid plan but bytes remained.
    TrailingInput {
        /// Byte offset of the first unconsumed character.
        offset: usize,
    },
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanParseError::UnexpectedEnd { expected } => {
                write!(f, "input ended while expecting {expected}")
            }
            PlanParseError::Unexpected { offset, expected } => {
                write!(f, "expected {expected} at byte {offset}")
            }
            PlanParseError::BadShape { offset } => {
                write!(f, "shape at byte {offset} is out of the valid extent range")
            }
            PlanParseError::TrailingInput { offset } => {
                write!(f, "trailing input after the plan at byte {offset}")
            }
        }
    }
}

impl std::error::Error for PlanParseError {}

impl Plan {
    /// Render the plan in the *canonical* stable grammar:
    ///
    /// ```text
    /// plan  := "g" | "d" | "(" shape " " plan " * " shape " " plan ")"
    /// shape := extent ("x" extent)*
    /// ```
    ///
    /// e.g. `(3x5 d * 4x4 g)`. Unlike the human-facing [`Display`]
    /// rendering, this grammar is a versioned wire format: it
    /// round-trips through [`Plan::parse`] byte-for-byte and is the
    /// string [`cubemesh-audit`'s plan fingerprint][fp] hashes, so its
    /// stability is pinned by golden tests and must never change
    /// silently.
    ///
    /// [fp]: https://example.org/cubemesh
    ///
    /// [`Display`]: fmt::Display
    pub fn to_canonical_string(&self) -> String {
        let mut out = String::new();
        self.canonical_into(&mut out);
        out
    }

    fn canonical_into(&self, out: &mut String) {
        match self {
            Plan::Gray => out.push('g'),
            Plan::Direct => out.push('d'),
            Plan::Product { f1, p1, f2, p2 } => {
                out.push('(');
                canonical_shape_into(f1, out);
                out.push(' ');
                p1.canonical_into(out);
                out.push_str(" * ");
                canonical_shape_into(f2, out);
                out.push(' ');
                p2.canonical_into(out);
                out.push(')');
            }
        }
    }

    /// Parse a plan from the canonical grammar produced by
    /// [`Plan::to_canonical_string`]. Inverse of that rendering:
    /// `Plan::parse(&p.to_canonical_string()) == Ok(p)` for every plan
    /// tree, and any accepted input re-renders to itself.
    pub fn parse(input: &str) -> Result<Plan, PlanParseError> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let plan = parse_plan(bytes, &mut pos)?;
        if pos != bytes.len() {
            return Err(PlanParseError::TrailingInput { offset: pos });
        }
        Ok(plan)
    }
}

fn canonical_shape_into(shape: &Shape, out: &mut String) {
    for (i, &d) in shape.dims().iter().enumerate() {
        if i > 0 {
            out.push('x');
        }
        push_decimal(d, out);
    }
}

/// Append `n` in decimal without a temporary `String`.
fn push_decimal(mut n: usize, out: &mut String) {
    // Least significant digit first; `usize::MAX` has 20 digits.
    let mut digits = [b'0'; 20];
    let mut len = 0;
    for slot in digits.iter_mut() {
        *slot = b'0' + (n % 10) as u8;
        len += 1;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[..len].iter().rev().map(|&b| char::from(b)));
}

fn parse_plan(b: &[u8], pos: &mut usize) -> Result<Plan, PlanParseError> {
    match b.get(*pos) {
        Some(b'g') => {
            *pos += 1;
            Ok(Plan::Gray)
        }
        Some(b'd') => {
            *pos += 1;
            Ok(Plan::Direct)
        }
        Some(b'(') => {
            *pos += 1;
            let f1 = parse_shape(b, pos)?;
            expect(b, pos, b" ")?;
            let p1 = parse_plan(b, pos)?;
            expect(b, pos, b" * ")?;
            let f2 = parse_shape(b, pos)?;
            expect(b, pos, b" ")?;
            let p2 = parse_plan(b, pos)?;
            expect(b, pos, b")")?;
            Ok(Plan::Product {
                f1,
                p1: Box::new(p1),
                f2,
                p2: Box::new(p2),
            })
        }
        Some(_) => Err(PlanParseError::Unexpected {
            offset: *pos,
            expected: "'g', 'd' or '('",
        }),
        None => Err(PlanParseError::UnexpectedEnd {
            expected: "'g', 'd' or '('",
        }),
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &'static [u8]) -> Result<(), PlanParseError> {
    // The literals are ASCII renderings of themselves; safe to name in
    // the error without re-encoding.
    let expected = match lit {
        b" " => "' '",
        b" * " => "' * '",
        _ => "')'",
    };
    if b.len() < *pos + lit.len() {
        return Err(PlanParseError::UnexpectedEnd { expected });
    }
    if &b[*pos..*pos + lit.len()] != lit {
        return Err(PlanParseError::Unexpected {
            offset: *pos,
            expected,
        });
    }
    *pos += lit.len();
    Ok(())
}

fn parse_shape(b: &[u8], pos: &mut usize) -> Result<Shape, PlanParseError> {
    let start = *pos;
    let mut dims: Vec<usize> = Vec::new();
    loop {
        dims.push(parse_extent(b, pos)?);
        // `Shape::check` on every prefix refuses a hostile string at its
        // first bad extent, before the constructor's assertions.
        if Shape::check(&dims).is_err() {
            return Err(PlanParseError::BadShape { offset: start });
        }
        if b.get(*pos) == Some(&b'x') {
            *pos += 1;
        } else {
            return Ok(Shape::new(&dims));
        }
    }
}

fn parse_extent(b: &[u8], pos: &mut usize) -> Result<usize, PlanParseError> {
    let mut v: usize = 0;
    let start = *pos;
    // Reject leading zeros so every accepted input is already in
    // canonical spelling (re-rendering reproduces it byte-for-byte).
    if b.get(*pos) == Some(&b'0') && b.get(*pos + 1).is_some_and(u8::is_ascii_digit) {
        return Err(PlanParseError::BadShape { offset: start });
    }
    while let Some(c) = b.get(*pos) {
        if !c.is_ascii_digit() {
            break;
        }
        v = match v
            .checked_mul(10)
            .and_then(|v| v.checked_add((c - b'0') as usize))
        {
            Some(v) => v,
            None => return Err(PlanParseError::BadShape { offset: start }),
        };
        *pos += 1;
    }
    if *pos == start {
        return match b.get(*pos) {
            Some(_) => Err(PlanParseError::Unexpected {
                offset: *pos,
                expected: "an extent digit",
            }),
            None => Err(PlanParseError::UnexpectedEnd {
                expected: "an extent digit",
            }),
        };
    }
    Ok(v)
}

/// Drop length-1 axes; a 0-rank result becomes the 1-node shape `[1]`.
pub fn reduce(shape: &Shape) -> Shape {
    let dims: Vec<usize> = shape.dims().iter().copied().filter(|&d| d > 1).collect();
    if dims.is_empty() {
        Shape::new(&[1])
    } else {
        Shape::new(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_drops_ones() {
        assert_eq!(reduce(&Shape::new(&[1, 5, 1, 3])), Shape::new(&[5, 3]));
        assert_eq!(reduce(&Shape::new(&[1, 1])), Shape::new(&[1]));
        assert_eq!(reduce(&Shape::new(&[4, 4])), Shape::new(&[4, 4]));
    }

    #[test]
    fn gray_plan_dims() {
        let shape = Shape::new(&[5, 6, 7]);
        assert_eq!(Plan::Gray.host_dim(&shape), 9);
    }

    #[test]
    fn direct_plan_dims_from_catalog() {
        let shape = Shape::new(&[3, 5]);
        assert_eq!(Plan::Direct.host_dim(&shape), 4);
        // Length-1 axes are transparent.
        let shape3 = Shape::new(&[3, 1, 5]);
        assert_eq!(Plan::Direct.host_dim(&shape3), 4);
    }

    #[test]
    fn canonical_round_trip() {
        let plan = Plan::Product {
            f1: Shape::new(&[3, 5]),
            p1: Box::new(Plan::Direct),
            f2: Shape::new(&[4, 4]),
            p2: Box::new(Plan::Gray),
        };
        let s = plan.to_canonical_string();
        assert_eq!(s, "(3x5 d * 4x4 g)");
        assert_eq!(Plan::parse(&s), Ok(plan));
        assert_eq!(Plan::parse("g"), Ok(Plan::Gray));
        assert_eq!(Plan::parse("d"), Ok(Plan::Direct));
        let nested = Plan::Product {
            f1: Shape::new(&[15, 1]),
            p1: Box::new(Plan::Product {
                f1: Shape::new(&[3, 1]),
                p1: Box::new(Plan::Gray),
                f2: Shape::new(&[5, 1]),
                p2: Box::new(Plan::Direct),
            }),
            f2: Shape::new(&[1, 7]),
            p2: Box::new(Plan::Gray),
        };
        let s = nested.to_canonical_string();
        assert_eq!(s, "(15x1 (3x1 g * 5x1 d) * 1x7 g)");
        assert_eq!(Plan::parse(&s), Ok(nested));
    }

    #[test]
    fn decimal_extents_match_to_string() {
        for n in [0, 1, 9, 10, 99, 100, 512, 32_768, usize::MAX] {
            let mut out = String::from("x");
            push_decimal(n, &mut out);
            assert_eq!(out, format!("x{n}"));
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Plan::parse("").is_err());
        assert!(Plan::parse("x").is_err());
        assert!(Plan::parse("gg").is_err());
        assert!(Plan::parse("(3x5 d * 4x4 g").is_err());
        assert!(Plan::parse("(3x5 d 4x4 g)").is_err());
        assert!(Plan::parse("(03 g * 2 g)").is_err());
        assert!(Plan::parse("(0x5 d * 4 g)").is_err());
        assert!(Plan::parse("(99999999 g * 2 g)").is_err());
        assert!(Plan::parse("(32768x32768x32768x32768 g * 2 g)").is_err());
    }

    #[test]
    fn product_plan_dims_add() {
        // 12x20 = (3x5) ⊙ (4x4) — the paper's §4.2 example.
        let plan = Plan::Product {
            f1: Shape::new(&[3, 5]),
            p1: Box::new(Plan::Direct),
            f2: Shape::new(&[4, 4]),
            p2: Box::new(Plan::Gray),
        };
        let shape = Shape::new(&[12, 20]);
        assert_eq!(plan.host_dim(&shape), 4 + 4);
        assert_eq!(shape.minimal_cube_dim(), 8);
    }
}

//! The §4.2 decomposition strategy as a memoized recursive planner.
//!
//! [`Planner::plan`] returns a [`Plan`] whose host cube is *minimal* for
//! the shape and whose dilation bound is ≤ 2 (congestion ≤ 2), or `None`
//! when the strategy finds nothing — mirroring the paper, where the same
//! shapes (e.g. `5×5×5`) remain open. The search applies, in order:
//!
//! 1. **Gray** whole (method 1);
//! 2. **Direct** catalog hit, exact or by axis extension inside the same
//!    cube (`10×11 ⊆ 11×11`, both `→ Q₇`);
//! 3. **Power-of-two peel**: `ℓᵢ = oᵢ·2^{eᵢ}` with the odd core planned
//!    recursively and the `2^{eᵢ}` Gray factor split off (§4.2 step 1);
//! 4. **Catalog ⊙ factor**: a 3-D catalog entry times an exact quotient or
//!    a Gray extension factor (method 3, generalized);
//! 5. **Pair + Gray** (method 2), with the pair planned recursively;
//! 6. **Axis split** `ℓⱼ → ℓ′·ℓ″ ≥ ℓⱼ` into two recursively planned 2-D
//!    pieces (method 4), both pairings;
//! 7. for rank ≥ 4 (beyond the paper, supporting its §8 conjecture):
//!    bipartitions of the axis set and axis splits across bipartitions.
//!
//! Unlike the arithmetic classification in [`crate::classify`] (which
//! treats Chan's 2-D result \[4] as a black box), every plan returned here
//! is *constructible*: [`crate::construct`] lowers it to a verified
//! embedding. The planner therefore under-covers the classification
//! slightly; EXPERIMENTS.md quantifies the gap.

use crate::plan::{reduce, Plan};
use cubemesh_obs as obs;
use cubemesh_search::{catalog_entries, catalog_lookup};
use cubemesh_topology::{cube_dim, Shape};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Bit-set selecting which planner rules a pass may apply — the
/// mechanism behind the [`crate::strategy`] ladder. Each constant
/// enables one rule family; recursion inside a masked pass stays inside
/// the mask, so `plan_masked(s, DIRECT_SET)` proves "s is coverable by
/// methods 1 + direct lookup alone", not merely "the first rule that
/// fired was a lookup".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct RuleMask(u16);

impl RuleMask {
    /// Method 1: whole-mesh Gray code.
    pub(crate) const GRAY: RuleMask = RuleMask(1 << rule::GRAY);
    /// Exact direct-catalog hit.
    pub(crate) const DIRECT: RuleMask = RuleMask(1 << rule::DIRECT);
    /// Catalog hit by axis extension inside the same cube.
    pub(crate) const DIRECT_EXT: RuleMask = RuleMask(1 << rule::DIRECT_EXT);
    /// §4.2 step 1: peel the power-of-two factors off every axis.
    pub(crate) const PEEL_POW2: RuleMask = RuleMask(1 << rule::PEEL_POW2);
    /// Method 3 generalized: catalog entry ⊙ planned factor.
    pub(crate) const CATALOG_PRODUCT: RuleMask = RuleMask(1 << rule::CATALOG_PRODUCT);
    /// Method 2: pair two axes, Gray the third.
    pub(crate) const PAIR_GRAY: RuleMask = RuleMask(1 << rule::PAIR_GRAY);
    /// Every rule, axis splits and bipartitions included — the behavior
    /// of [`Planner::plan`].
    pub(crate) const ALL: RuleMask = RuleMask((1 << rule::NAMES.len()) - 1);

    /// Union of two masks.
    #[must_use]
    pub(crate) const fn union(self, other: RuleMask) -> RuleMask {
        RuleMask(self.0 | other.0)
    }

    /// Does the mask enable rule index `r` (a `rule::*` constant)?
    const fn has(self, r: usize) -> bool {
        self.0 & (1 << r) != 0
    }
}

/// Memoized decomposition planner. Reuse one instance across queries — the
/// memo table is shared (and keyed by rule mask, so masked passes never
/// see conclusions a wider rule set reached).
#[derive(Default)]
pub struct Planner {
    memo: HashMap<MemoKey, Option<Plan>, BuildHasherDefault<MemoHasher>>,
    /// Current recursion depth (observability only).
    depth: u32,
    /// Batched metric tallies, flushed to the global registry once per
    /// top-level [`plan`](Planner::plan) call. The planner is `&mut self`
    /// (single-threaded), so plain integers keep the recursion free of
    /// atomics.
    stats: PlannerStats,
}

/// Extents a [`MemoKey`] holds inline: every 3-D census shape and every
/// rank-4..8 sub-shape of the k-D path. Wider shapes spill to the heap.
const KEY_RANK: usize = 8;

/// Memo key: the rule mask plus the *reduced* extents (unit axes
/// dropped). An extent is at most [`Shape::MAX_AXIS`] = 2¹⁵, so it fits
/// a `u16`; zero-padding is unambiguous because reduced extents are
/// ≥ 2, or the single extent 1. A probe therefore builds its key on the
/// stack unless the shape has more than [`KEY_RANK`] axes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum MemoKey {
    Inline {
        mask: RuleMask,
        dims: [u16; KEY_RANK],
    },
    Wide {
        mask: RuleMask,
        dims: Vec<usize>,
    },
}

impl MemoKey {
    /// The key of `dims` with unit axes dropped (all-unit → `[1]`).
    fn reduced(mask: RuleMask, dims: &[usize]) -> MemoKey {
        let mut inline = [0u16; KEY_RANK];
        let mut slots = inline.iter_mut();
        for &d in dims.iter().filter(|&&d| d > 1) {
            match (slots.next(), u16::try_from(d)) {
                (Some(slot), Ok(d)) => *slot = d,
                _ => {
                    return MemoKey::Wide {
                        mask,
                        dims: dims.iter().copied().filter(|&d| d > 1).collect(),
                    }
                }
            }
        }
        if inline[0] == 0 {
            inline[0] = 1;
        }
        MemoKey::Inline { mask, dims: inline }
    }

    /// The reduced shape the key stands for.
    fn shape(&self) -> Shape {
        match self {
            MemoKey::Inline { dims, .. } => {
                let mut buf = [0usize; KEY_RANK];
                let mut rank = 0;
                for (b, &d) in buf.iter_mut().zip(dims.iter().take_while(|&&d| d != 0)) {
                    *b = usize::from(d);
                    rank += 1;
                }
                Shape::new(&buf[..rank])
            }
            MemoKey::Wide { dims, .. } => Shape::new(dims),
        }
    }
}

/// Multiply-rotate hasher for [`MemoKey`]s (the FxHash step). The keys
/// are the planner's own sub-shapes, never outside input, so SipHash's
/// resistance to crafted collisions buys nothing on this hot path.
#[derive(Default)]
struct MemoHasher(u64);

impl MemoHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for MemoHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut word = [0u8; 8];
            word.copy_from_slice(w);
            self.add(u64::from_le_bytes(word));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the low bits weakest; the table indexes
        // buckets by them.
        self.0.rotate_left(26)
    }
}

/// Index names for [`PlannerStats::attempts`] / `hits`.
mod rule {
    pub const GRAY: usize = 0;
    pub const DIRECT: usize = 1;
    pub const DIRECT_EXT: usize = 2;
    pub const PEEL_POW2: usize = 3;
    pub const CATALOG_PRODUCT: usize = 4;
    pub const PAIR_GRAY: usize = 5;
    pub const AXIS_SPLIT: usize = 6;
    pub const BIPARTITION: usize = 7;
    pub const NAMES: [&str; 8] = [
        "gray",
        "direct",
        "direct_ext",
        "peel_pow2",
        "catalog_product",
        "pair_gray",
        "axis_split",
        "bipartition",
    ];
}

/// Local tallies mirroring the `planner.*` metrics.
#[derive(Default)]
struct PlannerStats {
    memo_hit: u64,
    memo_miss: u64,
    attempts: [u64; 8],
    hits: [u64; 8],
    /// Samples of the `planner.depth` histogram: `depth_seen[d]` counts
    /// recursions entered at depth `d` (clamped to the array).
    depth_seen: [u64; 32],
}

/// `planner.rule.<r>.attempt` / `.hit` metric names, index-aligned with
/// [`rule::NAMES`].
const ATTEMPT_NAMES: [&str; 8] = [
    "planner.rule.gray.attempt",
    "planner.rule.direct.attempt",
    "planner.rule.direct_ext.attempt",
    "planner.rule.peel_pow2.attempt",
    "planner.rule.catalog_product.attempt",
    "planner.rule.pair_gray.attempt",
    "planner.rule.axis_split.attempt",
    "planner.rule.bipartition.attempt",
];
const HIT_NAMES: [&str; 8] = [
    "planner.rule.gray.hit",
    "planner.rule.direct.hit",
    "planner.rule.direct_ext.hit",
    "planner.rule.peel_pow2.hit",
    "planner.rule.catalog_product.hit",
    "planner.rule.pair_gray.hit",
    "planner.rule.axis_split.hit",
    "planner.rule.bipartition.hit",
];

impl Planner {
    /// Memo entries a planner that outlives one query keeps (the plan
    /// service's live misses, a `certify --sweep`): each distinct shape
    /// planned leaves about five sub-plans (~1.4 KB of RSS) behind, so
    /// such callers pass this to [`Planner::bound_memo`] after each
    /// query.
    pub const MEMO_LIMIT: usize = 1 << 14;

    /// Fresh planner with an empty memo table.
    pub fn new() -> Self {
        Planner::default()
    }

    /// Start the memo over once it holds more than `limit` entries, so
    /// a planner shared across many queries stays bounded. No answer
    /// changes: every memo entry is a pure function of its rule mask
    /// and shape.
    pub fn bound_memo(&mut self, limit: usize) {
        if self.memo.len() > limit {
            self.memo = Default::default();
        }
    }

    /// Plan a minimal-expansion, dilation-≤2 embedding for `shape` with
    /// every rule enabled: the rule engine under the strategy ladder's
    /// widest rung. To choose the plan for a shape, ask
    /// [`crate::plan_shape`], which tries the narrower rungs first.
    pub fn plan(&mut self, shape: &Shape) -> Option<Plan> {
        self.plan_masked(shape, RuleMask::ALL)
    }

    /// [`plan`](Planner::plan) restricted to the rules in `mask`; the
    /// restriction applies recursively, so the result is a plan the
    /// masked rule set can justify on its own.
    pub(crate) fn plan_masked(&mut self, shape: &Shape, mask: RuleMask) -> Option<Plan> {
        // Rules recurse through `replan`, never through here, so a query
        // shows up as one `planner.plan` span with rule-hit instants
        // nested inside it, and publishes its batched tallies once.
        obs::span!("planner.plan");
        let result = self.replan(shape.dims(), mask);
        self.flush_stats();
        result
    }

    /// Internal recursion entry: reduce, then consult the masked memo.
    /// Takes bare extents so a rule can probe a candidate piece without
    /// building a [`Shape`] for it.
    fn replan(&mut self, dims: &[usize], mask: RuleMask) -> Option<Plan> {
        let key = MemoKey::reduced(mask, dims);
        if let Some(hit) = self.memo.get(&key) {
            self.stats.memo_hit += 1;
            return hit.clone();
        }
        self.stats.memo_miss += 1;
        // No cycle guard is needed: every rule recurses only on shapes
        // with fewer nodes, so a key is never probed while it is being
        // computed.
        let result = self.compute(&key.shape(), mask);
        self.memo.insert(key, result.clone());
        result
    }

    /// Sub-plans held in the memo table (one per distinct reduced
    /// shape and rule mask planned so far). Its growth is what a
    /// long-lived planner costs in memory.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// `true` if the planner covers `shape`.
    pub fn covers(&mut self, shape: &Shape) -> bool {
        self.plan(shape).is_some()
    }

    /// Tally a rule hit; when tracing is on, also drop an instant event
    /// so the trace shows *which* rule resolved each (sub)shape.
    fn rule_hit(&mut self, r: usize) {
        self.stats.hits[r] += 1;
        obs::trace::instant("planner.rule.hit", rule::NAMES[r]);
    }

    fn compute(&mut self, shape: &Shape, mask: RuleMask) -> Option<Plan> {
        self.depth += 1;
        let d = (self.depth as usize).min(self.stats.depth_seen.len() - 1);
        self.stats.depth_seen[d] += 1;
        let result = self.compute_rules(shape, mask);
        self.depth -= 1;
        result
    }

    /// Publish and clear the batched tallies. Cheap no-op (one relaxed
    /// load plus the local reset) while stats are disabled.
    fn flush_stats(&mut self) {
        let stats = std::mem::take(&mut self.stats);
        if !obs::enabled() {
            return;
        }
        // Register hit and miss unconditionally so every snapshot carries
        // the pair (and thus the derived `planner.memo.hit_rate`).
        obs::counter!("planner.memo.hit").add(stats.memo_hit);
        obs::counter!("planner.memo.miss").add(stats.memo_miss);
        // Registry lookups are mutex-guarded; resolve the 16 rule counters
        // once and reuse the references on every flush.
        static RULE_COUNTERS: std::sync::OnceLock<
            Vec<(&'static obs::Counter, &'static obs::Counter)>,
        > = std::sync::OnceLock::new();
        let counters = RULE_COUNTERS.get_or_init(|| {
            (0..rule::NAMES.len())
                .map(|i| {
                    (
                        obs::counter_named(ATTEMPT_NAMES[i]),
                        obs::counter_named(HIT_NAMES[i]),
                    )
                })
                .collect()
        });
        for (i, (attempt, hit)) in counters.iter().enumerate() {
            attempt.add(stats.attempts[i]);
            hit.add(stats.hits[i]);
        }
        let depth_hist = obs::histogram!("planner.depth");
        for (d, &n) in stats.depth_seen.iter().enumerate() {
            depth_hist.record_n(d as u64, n);
        }
    }

    fn compute_rules(&mut self, shape: &Shape, mask: RuleMask) -> Option<Plan> {
        let total = shape.minimal_cube_dim();

        // 1. Gray.
        if mask.has(rule::GRAY) {
            self.stats.attempts[rule::GRAY] += 1;
            if shape.gray_is_minimal() {
                self.rule_hit(rule::GRAY);
                return Some(Plan::Gray);
            }
        }
        // 2. Direct, exact…
        if mask.has(rule::DIRECT) {
            self.stats.attempts[rule::DIRECT] += 1;
            if catalog_lookup(shape).is_some() {
                self.rule_hit(rule::DIRECT);
                return Some(Plan::Direct);
            }
        }
        // …or by extension into a catalog shape with the same cube.
        if mask.has(rule::DIRECT_EXT) {
            self.stats.attempts[rule::DIRECT_EXT] += 1;
            if let Some(plan) = self.direct_extension(shape, total) {
                self.rule_hit(rule::DIRECT_EXT);
                return Some(plan);
            }
        }
        // 3. Peel powers of two.
        if mask.has(rule::PEEL_POW2) {
            self.stats.attempts[rule::PEEL_POW2] += 1;
            if let Some(plan) = self.peel_pow2(shape, total, mask) {
                self.rule_hit(rule::PEEL_POW2);
                return Some(plan);
            }
        }
        match shape.rank() {
            0 | 1 => None, // Gray is always minimal for rank ≤ 1; unreachable.
            2 => self.plan2(shape, total, mask),
            3 => self.plan3(shape, total, mask),
            _ => self.plan_k(shape, total, mask),
        }
    }

    /// Rule 2b: `shape ≤ entry` axiswise (some permutation) with the same
    /// minimal cube.
    fn direct_extension(&mut self, shape: &Shape, total: u32) -> Option<Plan> {
        let k = shape.rank();
        for entry in catalog_entries() {
            if entry.dims.len() != k || entry.host_dim != total {
                continue;
            }
            // Try to assign each shape axis under a distinct entry axis.
            if fits_under_permuted(shape.dims(), entry.dims) {
                let target: Vec<usize> = sorted_cover(shape.dims(), entry.dims);
                let ones = Shape::new(&vec![1; k]);
                return Some(Plan::Product {
                    f1: Shape::new(&target),
                    p1: Box::new(Plan::Direct),
                    f2: ones,
                    p2: Box::new(Plan::Gray),
                });
            }
        }
        None
    }

    /// Rule 3: write `ℓᵢ = oᵢ·2^{eᵢ}`, plan the odd core, Gray the rest.
    fn peel_pow2(&mut self, shape: &Shape, total: u32, mask: RuleMask) -> Option<Plan> {
        let mut odd = Vec::with_capacity(shape.rank());
        let mut pow = Vec::with_capacity(shape.rank());
        let mut epsilon = 0u32;
        for &d in shape.dims() {
            let e = d.trailing_zeros();
            odd.push(d >> e);
            pow.push(1usize << e);
            epsilon += e;
        }
        if epsilon == 0 {
            return None; // nothing to peel
        }
        let odd_total = cube_dim(odd.iter().product::<usize>() as u64);
        if odd_total + epsilon != total {
            return None;
        }
        let p1 = self.replan(&odd, mask)?;
        Some(Plan::Product {
            f1: Shape::new(&odd),
            p1: Box::new(p1),
            f2: Shape::new(&pow),
            p2: Box::new(Plan::Gray),
        })
    }

    /// Rank-2 strategy: axis splits `ℓ → ℓ′·ℓ″ ≥ ℓ`.
    fn plan2(&mut self, shape: &Shape, total: u32, mask: RuleMask) -> Option<Plan> {
        if !mask.has(rule::AXIS_SPLIT) {
            return None;
        }
        let (l1, l2) = (shape.len(0), shape.len(1));
        self.stats.attempts[rule::AXIS_SPLIT] += 1;
        // Split axis 1: pieces (l1 × ℓ′) and (1 × ℓ″).
        for (axis, la, lm) in [(1usize, l1, l2), (0, l2, l1)] {
            for lp in 2..lm {
                let ls = lm.div_ceil(lp);
                if cube_dim((la * lp) as u64) + cube_dim(ls as u64) != total {
                    continue;
                }
                // The piece must keep the target's axis order: its plan is
                // constructed against `reduce(f1)` verbatim.
                let (piece, f2) = if axis == 1 {
                    ([la, lp], [1, ls])
                } else {
                    ([lp, la], [ls, 1])
                };
                if let Some(p1) = self.replan(&piece, mask) {
                    self.rule_hit(rule::AXIS_SPLIT);
                    return Some(Plan::Product {
                        f1: Shape::new(&piece),
                        p1: Box::new(p1),
                        f2: Shape::new(&f2),
                        p2: Box::new(Plan::Gray),
                    });
                }
            }
        }
        None
    }

    /// Rank-3 strategy: catalog⊙quotient, pair + Gray, axis splits.
    fn plan3(&mut self, shape: &Shape, total: u32, mask: RuleMask) -> Option<Plan> {
        let l = [shape.len(0), shape.len(1), shape.len(2)];

        // 4. Catalog entry ⊙ planned factor (exact quotient or Gray
        //    extension).
        if mask.has(rule::CATALOG_PRODUCT) {
            self.stats.attempts[rule::CATALOG_PRODUCT] += 1;
            if let Some(plan) = self.catalog_product3(shape, total, mask) {
                self.rule_hit(rule::CATALOG_PRODUCT);
                return Some(plan);
            }
        }

        // 5. Pair + Gray third (method 2).
        if mask.has(rule::PAIR_GRAY) {
            self.stats.attempts[rule::PAIR_GRAY] += 1;
        }
        for c in 0..3 {
            // The two paired axes, in ascending index order: the pair's
            // plan is constructed against `reduce(f1)`, which keeps the
            // target's axis order.
            let (a, b) = match c {
                0 => (1, 2),
                1 => (0, 2),
                _ => (0, 1),
            };
            if !mask.has(rule::PAIR_GRAY) {
                break;
            }
            if cube_dim((l[a] * l[b]) as u64) + cube_dim(l[c] as u64) != total {
                continue;
            }
            if let Some(p1) = self.replan(&[l[a], l[b]], mask) {
                self.rule_hit(rule::PAIR_GRAY);
                let mut f1 = vec![1usize; 3];
                f1[a] = l[a];
                f1[b] = l[b];
                let mut f2 = vec![1usize; 3];
                f2[c] = l[c];
                return Some(Plan::Product {
                    f1: Shape::new(&f1),
                    p1: Box::new(p1),
                    f2: Shape::new(&f2),
                    p2: Box::new(Plan::Gray),
                });
            }
        }

        // 6. Axis split (method 4): ℓⱼ → ℓ′·ℓ″, pieces (la×ℓ′), (ℓ″×lb).
        if !mask.has(rule::AXIS_SPLIT) {
            return None;
        }
        self.stats.attempts[rule::AXIS_SPLIT] += 1;
        for j in 0..3 {
            let a = (j + 1) % 3;
            let b = (j + 2) % 3;
            for (a, b) in [(a, b), (b, a)] {
                for lp in 2..l[j] {
                    let ls = l[j].div_ceil(lp);
                    if cube_dim((l[a] * lp) as u64) + cube_dim((ls * l[b]) as u64) != total {
                        continue;
                    }
                    // Pieces keep the target's axis order (they are
                    // constructed against `reduce(f1)`/`reduce(f2)`).
                    let piece1 = if a < j { [l[a], lp] } else { [lp, l[a]] };
                    let piece2 = if j < b { [ls, l[b]] } else { [l[b], ls] };
                    if let (Some(p1), Some(p2)) =
                        (self.replan(&piece1, mask), self.replan(&piece2, mask))
                    {
                        self.rule_hit(rule::AXIS_SPLIT);
                        let mut f1 = vec![1usize; 3];
                        f1[a] = l[a];
                        f1[j] = lp;
                        let mut f2 = vec![1usize; 3];
                        f2[j] = ls;
                        f2[b] = l[b];
                        return Some(Plan::Product {
                            f1: Shape::new(&f1),
                            p1: Box::new(p1),
                            f2: Shape::new(&f2),
                            p2: Box::new(p2),
                        });
                    }
                }
            }
        }
        None
    }

    /// Rule 4 helper: 3-D catalog entries times exact quotients or Gray
    /// extension factors.
    fn catalog_product3(&mut self, shape: &Shape, total: u32, mask: RuleMask) -> Option<Plan> {
        let l = shape.dims();
        for entry in catalog_entries() {
            if entry.dims.len() != 3 {
                continue;
            }
            for perm in PERMS3 {
                let d = [
                    entry.dims[perm[0]],
                    entry.dims[perm[1]],
                    entry.dims[perm[2]],
                ];
                // (a) Gray extension: f2ᵢ = 2^{eᵢ}, minimal eᵢ.
                let e: u32 = (0..3).map(|i| cube_dim(l[i].div_ceil(d[i]) as u64)).sum();
                if entry.host_dim + e == total {
                    let f1 = Shape::new(&d);
                    let f2: Vec<usize> = (0..3)
                        .map(|i| 1usize << cube_dim(l[i].div_ceil(d[i]) as u64))
                        .collect();
                    return Some(Plan::Product {
                        f1,
                        p1: Box::new(Plan::Direct),
                        f2: Shape::new(&f2),
                        p2: Box::new(Plan::Gray),
                    });
                }
                // (b) Exact quotient, planned recursively.
                if (0..3).all(|i| l[i].is_multiple_of(d[i])) {
                    let q = [l[0] / d[0], l[1] / d[1], l[2] / d[2]];
                    if let Some(p2) = self.replan(&q, mask) {
                        let q_shape = Shape::new(&q);
                        if entry.host_dim + p2.host_dim(&reduce(&q_shape)) == total {
                            return Some(Plan::Product {
                                f1: Shape::new(&d),
                                p1: Box::new(Plan::Direct),
                                f2: q_shape,
                                p2: Box::new(p2),
                            });
                        }
                    }
                }
            }
        }
        None
    }

    /// Rank ≥ 4 (beyond the paper): bipartitions and cross-partition axis
    /// splits.
    fn plan_k(&mut self, shape: &Shape, total: u32, rules: RuleMask) -> Option<Plan> {
        let k = shape.rank();
        let l = shape.dims();
        // Bipartitions of the axis set.
        if !rules.has(rule::BIPARTITION) {
            return None;
        }
        self.stats.attempts[rule::BIPARTITION] += 1;
        for mask in 1..(1u32 << k) - 1 {
            let mut g1 = vec![1usize; k];
            let mut g2 = vec![1usize; k];
            for i in 0..k {
                if mask & (1 << i) != 0 {
                    g1[i] = l[i];
                } else {
                    g2[i] = l[i];
                }
            }
            let h1 = cube_dim(g1.iter().product::<usize>() as u64);
            let h2 = cube_dim(g2.iter().product::<usize>() as u64);
            if h1 + h2 != total {
                continue;
            }
            if let (Some(p1), Some(p2)) = (self.replan(&g1, rules), self.replan(&g2, rules)) {
                self.rule_hit(rule::BIPARTITION);
                return Some(Plan::Product {
                    f1: Shape::new(&g1),
                    p1: Box::new(p1),
                    f2: Shape::new(&g2),
                    p2: Box::new(p2),
                });
            }
        }
        // Axis splits across bipartitions of the remaining axes.
        if !rules.has(rule::AXIS_SPLIT) {
            return None;
        }
        self.stats.attempts[rule::AXIS_SPLIT] += 1;
        for j in 0..k {
            if l[j] < 3 {
                continue;
            }
            let others: Vec<usize> = (0..k).filter(|&i| i != j).collect();
            for mask in 0..(1u32 << others.len()) {
                for lp in 2..l[j] {
                    let ls = l[j].div_ceil(lp);
                    let mut g1 = vec![1usize; k];
                    let mut g2 = vec![1usize; k];
                    g1[j] = lp;
                    g2[j] = ls;
                    for (bit, &i) in others.iter().enumerate() {
                        if mask & (1 << bit) != 0 {
                            g1[i] = l[i];
                        } else {
                            g2[i] = l[i];
                        }
                    }
                    let h1 = cube_dim(g1.iter().product::<usize>() as u64);
                    let h2 = cube_dim(g2.iter().product::<usize>() as u64);
                    if h1 + h2 != total {
                        continue;
                    }
                    if let (Some(p1), Some(p2)) = (self.replan(&g1, rules), self.replan(&g2, rules))
                    {
                        self.rule_hit(rule::AXIS_SPLIT);
                        return Some(Plan::Product {
                            f1: Shape::new(&g1),
                            p1: Box::new(p1),
                            f2: Shape::new(&g2),
                            p2: Box::new(p2),
                        });
                    }
                }
            }
        }
        None
    }
}

const PERMS3: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// Can each of `dims` be matched one-to-one under some permutation of
/// `cover` with `dims[i] ≤ cover[σ(i)]`?
fn fits_under_permuted(dims: &[usize], cover: &[usize]) -> bool {
    // The same answer as sorting both ascending and comparing
    // elementwise, without a buffer to sort in: the i-th smallest of
    // `dims` fits under the i-th smallest cover extent `t` exactly when
    // no more of `dims` than of `cover` exceed `t`.
    dims.len() == cover.len()
        && cover.iter().all(|&t| {
            let above = |s: &[usize]| s.iter().filter(|&&x| x > t).count();
            above(dims) <= above(cover)
        })
}

/// The cover's dims arranged so `dims[i] ≤ out[i]` — ascending-by-rank
/// matching (valid per [`fits_under_permuted`]).
fn sorted_cover(dims: &[usize], cover: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..dims.len()).collect();
    order.sort_by_key(|&i| dims[i]);
    let mut b: Vec<usize> = cover.to_vec();
    b.sort_unstable();
    let mut out = vec![0usize; dims.len()];
    for (rank, &i) in order.iter().enumerate() {
        out[i] = b[rank];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_of(dims: &[usize]) -> Option<Plan> {
        Planner::new().plan(&Shape::new(dims))
    }

    #[test]
    fn gray_minimal_meshes_plan_as_gray() {
        assert_eq!(plan_of(&[4, 8, 16]), Some(Plan::Gray));
        assert_eq!(plan_of(&[3, 3]), Some(Plan::Gray));
        assert_eq!(plan_of(&[7]), Some(Plan::Gray));
        assert_eq!(plan_of(&[1, 1, 1]), Some(Plan::Gray));
    }

    #[test]
    fn catalog_meshes_plan_as_direct() {
        assert_eq!(plan_of(&[3, 5]), Some(Plan::Direct));
        assert_eq!(plan_of(&[3, 3, 3]), Some(Plan::Direct));
        assert_eq!(plan_of(&[7, 3, 3]), Some(Plan::Direct)); // permuted 3x3x7
        assert_eq!(plan_of(&[5, 1, 3]), Some(Plan::Direct)); // 1-axes dropped
    }

    #[test]
    fn plans_are_minimal_expansion() {
        let mut planner = Planner::new();
        for dims in [
            vec![12usize, 20],
            vec![5, 6, 7],
            vec![21, 9, 5],
            vec![3, 3, 23],
            vec![6, 6, 6],
            vec![27, 3, 3],
            vec![9, 9, 9],
            vec![10, 11],
        ] {
            let shape = Shape::new(&dims);
            let plan = planner
                .plan(&shape)
                .unwrap_or_else(|| panic!("no plan for {:?}", dims));
            assert_eq!(
                plan.host_dim(&reduce(&shape)),
                shape.minimal_cube_dim(),
                "{:?}: {}",
                dims,
                plan
            );
            let m = crate::construct(&shape, &plan)
                .expect("plan lowers")
                .metrics();
            assert!(m.dilation <= 2 && m.congestion <= 2, "{dims:?}: {m:?}");
        }
    }

    #[test]
    fn open_meshes_have_no_plan() {
        // The paper's §5 exceptions must remain unplanned.
        let mut planner = Planner::new();
        for dims in [
            vec![5usize, 5, 5],
            vec![5, 7, 7],
            vec![3, 9, 9],
            vec![5, 5, 10],
            vec![3, 5, 17],
        ] {
            assert_eq!(planner.plan(&Shape::new(&dims)), None, "{:?}", dims);
        }
    }

    #[test]
    fn paper_worked_examples_plan() {
        let mut planner = Planner::new();
        // 12x20 = (3x5) ⊙ (4x4).
        let plan = planner.plan(&Shape::new(&[12, 20])).unwrap();
        assert!(matches!(plan, Plan::Product { .. }));
        // 3x25x3 reduces to two 3x5 pieces.
        assert!(planner.covers(&Shape::new(&[3, 25, 3])));
        // 5x10x11: minimal via a pair.
        assert!(planner.covers(&Shape::new(&[5, 10, 11])));
        // 6x11x7: no pairing is minimal but splits work or not — at least
        // classification says method 4 covers it; check the planner agrees.
        assert!(planner.covers(&Shape::new(&[6, 11, 7])));
    }

    #[test]
    fn four_dimensional_extension_conjecture() {
        // §8 conjectures higher-k meshes mostly decompose; check a few.
        let mut planner = Planner::new();
        assert!(planner.covers(&Shape::new(&[3, 5, 2, 4])));
        assert!(planner.covers(&Shape::new(&[3, 3, 3, 3])));
        assert_eq!(planner.plan(&Shape::new(&[2, 4, 8, 16])), Some(Plan::Gray));
    }

    #[test]
    fn fits_under_permuted_works() {
        assert!(fits_under_permuted(&[10, 11], &[11, 11]));
        assert!(fits_under_permuted(&[11, 10], &[11, 11]));
        assert!(!fits_under_permuted(&[12, 3], &[11, 11]));
        assert!(fits_under_permuted(&[3, 7, 3], &[3, 3, 7]));
        let cover = sorted_cover(&[11, 10], &[11, 11]);
        assert_eq!(cover, vec![11, 11]);
        let cover = sorted_cover(&[7, 2, 3], &[3, 3, 7]);
        assert_eq!(cover, vec![7, 3, 3]);
    }

    #[test]
    fn fits_under_permuted_agrees_with_sorted_comparison() {
        let sorted_fit = |dims: &[usize], cover: &[usize]| {
            let (mut a, mut b) = (dims.to_vec(), cover.to_vec());
            a.sort_unstable();
            b.sort_unstable();
            a.iter().zip(&b).all(|(x, y)| x <= y)
        };
        for k in 1..=3u32 {
            let n = 4usize.pow(k);
            for i in 0..n * n {
                let digits = |mut x: usize| {
                    (0..k)
                        .map(|_| {
                            let d = x % 4 + 1;
                            x /= 4;
                            d
                        })
                        .collect::<Vec<usize>>()
                };
                let (dims, cover) = (digits(i % n), digits(i / n));
                assert_eq!(
                    fits_under_permuted(&dims, &cover),
                    sorted_fit(&dims, &cover),
                    "{dims:?} under {cover:?}"
                );
            }
        }
    }

    #[test]
    fn memo_keys_reduce_and_round_trip() {
        let key = |dims: &[usize]| MemoKey::reduced(RuleMask::ALL, dims);
        assert_eq!(key(&[1, 5, 1, 3]), key(&[5, 3]));
        assert_ne!(key(&[5, 3]), key(&[3, 5]));
        assert_ne!(key(&[5, 3]), MemoKey::reduced(RuleMask::GRAY, &[5, 3]));
        assert_eq!(key(&[1, 5, 1, 3]).shape(), Shape::new(&[5, 3]));
        assert_eq!(key(&[1, 1]).shape(), Shape::new(&[1]));
        assert_eq!(
            key(&[Shape::MAX_AXIS]).shape(),
            Shape::new(&[Shape::MAX_AXIS])
        );
        let eight = [2, 3, 1, 4, 5, 6, 7, 8, 9];
        assert!(matches!(key(&eight), MemoKey::Inline { .. }));
        let nine = [2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert!(matches!(key(&nine), MemoKey::Wide { .. }));
        assert_eq!(key(&nine).shape(), Shape::new(&nine));
    }
}
